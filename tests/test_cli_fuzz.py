"""Fuzzed command lines: each command's argv drawn from the flags its own
parser declares, with edge values, placed on the command line or in an INI
file. Every one ends in exit 0 or 2, with no traceback and no warning, and
with one ``error:`` line on 2. Every size and count drawn is capped small,
so no run is long.
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stepfree.cli as cli

# the largest value drawn for each size or count; sweep runs with 20 reps
CAPS = {"dimension": 3, "n_samples": 8, "budget": 64, "rounds": 5, "T": 16,
        "n_paths": 3, "round_k": 3, "reps": 20, "seed": 3}
# huge values that a limit rejects before any run: the restart schedule's
# 2^m leaves the float range at m = 1024, and --union-grid takes
# --round-k <= 9 (the round constant of a plain check grows only linearly)
HUGE = {"rounds": 10 ** 9, "round_k": 10 ** 6}

# settings given unless drawn, so that the defaults start no long run and a
# run is reached at all
BASE = {"tune": {"eta_eps": "0.001"},
        "restart": {"family": "sc_quadratic"},
        "validate-good-event": {"T": "8", "n_paths": "2"},
        "boundary-test": {"T": "8", "n_paths": "2"},
        "sweep": {"eta_eps": "0.001", "budgets": "8,16,32,64",
                  "reps": "20"}}

FLOATS = [0.0, -1.0, math.nan, math.inf, -math.inf, 1e-300, 1e300, 0.5]
TEXTS = {"family": ["l1", "quadratic", "huber", "sc_quadratic", "logistic",
                    "nosuch"],
         "noise": ["none", "sphere", "signflip", "nosuch"],
         "csv": ["ok", "missing"], "jsonl": ["ok", "missing"]}


def value(action):
    """The text of a value for the setting of ``action``, edge values
    among them; for a switch, True or False for on or off."""
    dest = action.dest
    if action.nargs == 0:
        return st.booleans()
    if action.choices is not None:
        return st.sampled_from([*action.choices, "bogus"])
    if action.type is int:
        return st.sampled_from(sorted({0, -1, 1, 2, CAPS[dest],
                                       HUGE.get(dest, 1)})).map(str)
    if action.type is float:
        return st.sampled_from(FLOATS).map(repr)
    if action.type is cli.int_list:
        return st.lists(st.sampled_from([0, -1, 4, 8, 16, 32, 64]),
                        max_size=5).map(lambda b: ",".join(map(str, b)))
    return st.sampled_from(TEXTS[dest])


@st.composite
def command_lines(draw, command):
    """({dest: value}, the dests given in the INI file or None for no file,
    a misspelt INI key or None) of a command line of ``command``: one
    setting always drawn, so that each gets its share, and up to 3 more."""
    actions = cli._settings(command)
    values = dict(BASE[command])
    dests = sorted(actions)
    drawn = [draw(st.sampled_from(dests))]
    drawn += draw(st.lists(st.sampled_from(dests), max_size=3))
    for dest in drawn:
        values[dest] = draw(value(actions[dest]))
    in_ini = misspelt = None
    if draw(st.booleans()):
        in_ini = {dest for dest in sorted(values) if draw(st.booleans())}
        misspelt = draw(st.sampled_from([None, None, None, "budjet"]))
    return values, in_ini, misspelt


def argv_of(command, values, in_ini, misspelt, tmp):
    """The argv of a drawn command line, writing its INI file to ``tmp``."""
    actions = cli._settings(command)
    argv, ini = [command], []
    for dest, v in values.items():
        if dest in ("csv", "jsonl"):
            v = str(tmp / ("out." + dest) if v == "ok"
                    else tmp / "missing" / ("out." + dest))
        if in_ini is not None and dest in in_ini:
            text = {True: "yes", False: "no"}.get(v, v)
            ini.append(f"{dest.lower()} = {text}")
        elif v is True:
            argv.append(actions[dest].option_strings[0])
        elif v is not False:
            argv.append(f"{actions[dest].option_strings[0]}={v}")
    if in_ini is not None:
        if misspelt:
            ini.append(f"{misspelt} = 1")
        path = tmp / "cfg.ini"
        path.write_text("[run]\n" + "\n".join(ini) + "\n")
        argv.append(f"--config={path}")
    return argv


def run(argv):
    """(exit status, stderr, warnings) of cli.main(argv), run in-process."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    return code, err.getvalue(), [str(w.message) for w in caught]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_command_line_exits_0_or_2_with_one_error_line(command, data):
    line = data.draw(command_lines(command))
    with tempfile.TemporaryDirectory() as tmp:
        argv = argv_of(command, *line, Path(tmp))
        code, err, caught = run(argv)
    assert code in (0, 2), (argv, err)
    assert "Traceback" not in err and not caught, (argv, err, caught)
    errors = [l for l in err.splitlines() if "error:" in l]
    assert len(errors) == (1 if code == 2 else 0), (argv, err)
