"""Every listed CLI output is byte for byte the one the manifest records.

tests/cli_manifest.json holds one sha256 per invocation, made by
tests/write_cli_manifest.py, which also rewrites it after an intended
change.  The digests depend on numpy and on the platform's libm as well as
on the program, so on an environment other than the recorded one a
mismatch is reported as a skip that names both environments, and only a
run on the recorded environment fails on it.
"""

import json

import pytest

import write_cli_manifest as manifest


def test_cli_outputs_match_the_manifest():
    recorded = json.loads(manifest.MANIFEST.read_text())
    entries = recorded["entries"]
    assert [e["argv"] for e in entries] == manifest.INVOCATIONS
    # --threads is accepted and read by nothing: the same bytes either way
    by_argv = {tuple(e["argv"]): e["sha256"] for e in entries}
    gap = manifest.SAMPLE_GAP
    assert by_argv[tuple(gap)] == by_argv[tuple(gap + ["--threads", "4"])]
    changed = [" ".join(e["argv"]) for e in entries
               if manifest.digest(e["argv"]) != e["sha256"]]
    if changed and manifest.environment() != recorded["environment"]:
        pytest.skip(f"{len(changed)} of {len(entries)} outputs differ on "
                    f"{manifest.environment()}; the manifest was made on "
                    f"{recorded['environment']}")
    assert not changed, changed
