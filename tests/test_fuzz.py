"""Fuzz of the input boundary: instance files, subgroup text and CLI arguments.

Malformed input must end in a package error (``GspError``), and through the
CLI in exit code 0, 1, 2 or 3 with an ``error:``, ``promise violation:`` or
``resource cap:`` line, never in a traceback.  Draws are derandomized.  Every
drawn group is small (p^n at most a few thousand), so no command starts an
exponential run, and ``--jobs`` is never drawn, so no worker process starts.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import gsp.cli as cli
from gsp import GspError, HiddenInstance, Subgroup, instance_from_text, instance_to_text, make_instance

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)

SMALL_INTS = st.integers(-2, 9).map(str)
JUNK = st.sampled_from(["", "x", "1.5", "-", "0x10", "1e3", "2..", "..", "2,x", "3..a", "٣", " 4 "])
VALUES = st.one_of(SMALL_INTS, JUNK)
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=30)

SUBGROUP_TEXTS = st.one_of(
    st.builds(
        lambda p, n, rows: f"p={p} n={n} rows={';'.join(rows)}",
        VALUES,
        VALUES,
        st.lists(st.text("0123456789abz", max_size=9), max_size=4),
    ),
    TEXT,
)

# Largest p^n each command may be given, so that every run stays short.
LIMIT = {"gen": 1 << 12, "solve": 1 << 12, "brute": 1 << 10, "birthday": 1 << 12,
         "qsolve": 729, "bench": 64, "verify-bounds": 1 << 12}
INSTANCE_FLAGS = ("--p", "--n", "--k", "--seed", "--label-seed", "--obfuscate")
FLAGS = {
    "gen": INSTANCE_FLAGS + ("--reveal",),
    "solve": INSTANCE_FLAGS + ("--in", "--d", "--check"),
    "qsolve": INSTANCE_FLAGS + ("--in", "--check"),
    "brute": INSTANCE_FLAGS + ("--in", "--check"),
    "birthday": INSTANCE_FLAGS + ("--in", "--sample-seed", "--multiplier"),
    "bench": ("--p", "--n", "--k", "--d", "--solver", "--obfuscate", "--multiplier", "--seeds"),
    "verify-bounds": ("--p", "--n", "--k", "--enum-cap"),
}
SWITCHES = ("--reveal", "--check")
# A finite multiplier near 1e308 asks for about that many samples, so none is drawn.
MULTIPLIERS = ["0", "-3", "0.5", "8", "nan", "inf", "-inf", "1e400"]


def _mostly(good, bad):
    """Draws from ``good`` nine times in ten."""
    return st.integers(0, 99).flatmap(lambda r: bad if r >= 90 else good)


@st.composite
def instance_texts(draw):
    """A valid small instance file with up to three lines dropped, changed or inserted."""
    p, n = draw(st.sampled_from([(2, 4), (3, 3), (5, 2), (2, 6)]))
    seeds = st.integers(0, 99)
    inst = make_instance(p, n, draw(st.integers(1, n - 1)), draw(seeds), draw(seeds), draw(st.booleans()))
    lines = instance_to_text(inst).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["drop", "value", "insert"]))
        if action == "insert" or i == len(lines):
            lines.insert(i, draw(TEXT))
        elif action == "drop":
            del lines[i]
        else:
            key = lines[i].partition("=")[0]
            lines[i] = f"{key}={draw(SUBGROUP_TEXTS if key == 'secret' else VALUES)}"
    return "\n".join(lines)


@st.composite
def argvs(draw, folder):
    """A command line of one subcommand, mostly with small valid values."""
    command = draw(_mostly(st.sampled_from(sorted(FLAGS)), st.just("bogus")))
    p = draw(_mostly(st.sampled_from([2, 3, 5, 7]), st.integers(-1, 9)))
    max_n = max(n for n in range(9) if p < 2 or p**n <= LIMIT.get(command, 1))
    n = draw(_mostly(st.integers(min(2, max_n), max_n), st.integers(-1, 1)))
    k = draw(_mostly(st.integers(1, max(n - 1, 1)), st.integers(-1, 9)))
    good = {
        "--p": st.just(str(p)),
        "--n": st.just(str(n)),
        "--k": st.just(str(k)),
        "--d": st.integers(0, max(n - k, 0)).map(str),
        "--obfuscate": st.sampled_from(["0", "1"]),
        "--multiplier": st.sampled_from(MULTIPLIERS),
        "--solver": st.sampled_from(["det", "brute", "birthday", "quantum", "all"]),
        "--seeds": st.sampled_from(["-1", "0", "1", "2"]),
        "--enum-cap": st.sampled_from(["0", "64", "4096"]),
    }
    argv = [command]
    for flag in FLAGS.get(command, ("--p", "--n")):
        percent = {"--p": 90, "--n": 90, "--k": 90, "--in": 20}.get(flag, 50)  # chance the flag is given
        if draw(st.integers(0, 99)) >= percent:
            continue
        if flag in SWITCHES:
            argv.append(flag)
        elif flag == "--in":
            path = Path(folder) / "instance.txt"
            path.write_text(draw(instance_texts()), encoding="utf-8")
            argv += [flag, str(path) if draw(st.booleans()) else str(Path(folder) / "missing.txt")]
        else:
            argv += [flag, draw(_mostly(good.get(flag, st.integers(-1, 9).map(str)), JUNK))]
    if command == "bench" and "--seeds" not in argv:
        argv += ["--seeds", "1"]  # the default, 20 seeds, would make a long grid
    if command in ("gen", "bench"):
        argv += ["--out", str(Path(folder) / "out.txt")]
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "7", "--p"])))
    return argv


@FUZZ
@given(SUBGROUP_TEXTS)
def test_subgroup_text(text):
    try:
        h = Subgroup.from_text(text)
    except GspError:
        return
    assert h == Subgroup(h.p, h.n, h.basis)  # the full RREF check
    assert Subgroup.from_text(h.to_text()) == h


@FUZZ
@given(instance_texts())
def test_instance_text(text):
    try:
        inst = instance_from_text(text)
    except GspError:
        return
    assert isinstance(inst, HiddenInstance)
    assert instance_from_text(instance_to_text(inst)) == inst


@FUZZ
@given(st.data())
def test_cli_argv(data):
    with tempfile.TemporaryDirectory() as folder:
        argv = data.draw(argvs(folder))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    messages = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3), (argv, code)
    if code:
        assert any(m.startswith(("error:", "promise violation:", "resource cap:")) for m in messages), (argv, messages)
