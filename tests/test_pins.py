"""Every behaviour pin of ``tests/pins.py``, asserted once, and its command."""

import dataclasses
import shutil

import pytest

import pins

PAIRS = [(group, key) for group in pins.GROUPS.values() for key in group.pins]


@pytest.mark.parametrize("group, key", PAIRS, ids=[f"{g.name}/{k}" for g, k in PAIRS])
def test_pin(group, key):
    assert group.digest(*group.cells()[key]) == group.pins[key]


def test_every_cell_is_pinned():
    for group in pins.GROUPS.values():
        assert sorted(group.pins) == sorted(group.cells()), group.name


def test_diff_names_the_edited_and_the_deleted_key(capsys):
    group = pins.GROUPS["random"]
    registry = {key: value for key, value in group.pins.items() if key != "mvto/event"}
    registry["sgt/event"] = "0" * 64
    assert pins.diff([dataclasses.replace(group, pins=registry)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"random: unchanged {len(group.pins) - 2}",
        "  changed sgt/event",
        "  missing mvto/event",
        f"2 of {len(group.pins)} moved",
    ]


def test_regen_refuses_a_frozen_group_and_rewrites_the_rest(tmp_path, capsys):
    copy = tmp_path / "pins.py"
    shutil.copyfile(pins.__file__, copy)
    before = copy.read_bytes()
    assert pins.main(["regen", "round-scan-scale"], path=str(copy)) == 2
    assert "frozen" in capsys.readouterr().err
    # nothing moved: the same bytes, also after the literal was emptied
    assert pins.main(["regen", "random"], path=str(copy)) == 0
    pins.write_pins(str(copy), "random", {})
    assert pins.GROUPS["random"].pins["serial/event"] not in copy.read_text()
    assert pins.main(["regen", "random"], path=str(copy)) == 0
    assert copy.read_bytes() == before
