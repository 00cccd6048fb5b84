"""A fixed slice of the seeded instance-file and flag mutation sweep (see ``input_sweep.py``)."""

import collections

import pytest

from input_sweep import _FLAG_VALUES, Outcome, make_case, problems, sweep

SEED, COUNT = 0, 600


def test_fixed_slice_never_ends_in_an_internal_error():
    codes, failures = sweep(SEED, COUNT)
    assert failures == []
    assert set(codes) == {0, 2}


def test_fixed_slice_covers_every_command_and_format():
    cases = [make_case(SEED, i) for i in range(COUNT)]
    assert collections.Counter(c.argv[0] for c in cases).keys() == {
        "analyze", "sweep", "regularity", "iht", "probe"}
    assert {c.name for c in cases} == {"inst.json", "inst.csv"}
    flags = {arg.split("=")[0] for c in cases for arg in c.argv if "=" in arg}
    assert flags == _FLAG_VALUES.keys()


def test_cases_are_reproducible_from_seed_and_index():
    assert make_case(3, 17) == make_case(3, 17)
    assert make_case(3, 17) != make_case(4, 17)


@pytest.mark.parametrize("code, out, err, warned, ok", [
    (0, '{"a": 1}\n', "", [], True),
    (0, '{"a": NaN}\n', "", [], False),
    (0, '{"a": Infinity}\n', "", [], False),
    (2, "", "error: bad file\n", [], True),
    (2, "", "usage: ...\n", [], False),
    (1, "", "internal error: boom\n", [], False),
    (0, '{"a": 1}\n', "", ["overflow encountered in multiply"], False),
], ids=["ok", "nan", "infinity", "error", "usage", "internal", "warning"])
def test_problems_flags_each_broken_assertion(code, out, err, warned, ok):
    assert (problems(Outcome(code, out, err, warned)) == []) is ok
