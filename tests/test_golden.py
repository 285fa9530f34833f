"""The golden chain's outputs are byte-identical to the record in ``tests/golden/tiny_run.json``.

The chain (``tests/golden/record.py``) runs `synth --with-telemetry`,
`reconstruct-inflow`, `train`, `forecast`, `verify` with reanalysis and NAO,
`cost-eval` and `report` at a fixed seed and config, with relative paths.
Every output and manifest must have the recorded SHA-256.  The digests hold
for the numpy and OpenBLAS builds they were recorded with (the record names
the Python and numpy versions); other builds may round differently.  A digest
is never loosened into a tolerance: a change that alters outputs on purpose
reruns ``record.py`` and so shows in the record's diff which outputs moved.
"""

import json

from golden.record import GOLDEN, largest_moves, outputs, run_chain, versions


def _change(name: str, old: dict | None, new: dict | None) -> str | None:
    """What changed in one output, with its largest numeric move where both sides hold the numbers, or None."""
    if old is None or new is None:
        return f"{name}: {'new' if old is None else 'no longer written'}"
    if old["sha256"] == new["sha256"]:
        return None
    if old["count"] != new["count"]:
        return f"{name}: {old['count']} numbers before, {new['count']} now"
    if "numbers" not in old:
        return f"{name}: digest differs ({old['count']} numbers, too many to record)"
    absolute, relative = largest_moves(old["numbers"], new["numbers"])
    if not absolute:
        return f"{name}: digest differs, but no number moved"
    return f"{name}: largest move {absolute:.3g} absolute, {relative:.3g} relative"


def test_chain_outputs_match_the_record(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    run_chain(tmp_path)
    now = outputs(tmp_path)
    changes = [_change(name, golden["files"].get(name), now.get(name)) for name in sorted(golden["files"].keys() | now.keys())]
    changes = [c for c in changes if c]
    assert not changes, "\n".join([f"outputs differ from {GOLDEN.name} (recorded with {golden['versions']}, now {versions()}):", *changes])
