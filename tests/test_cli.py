import hashlib
import inspect
import re
import time
from itertools import combinations
from pathlib import Path

import pytest

import tsslab
from tsslab import verify
from tsslab.circuits import build_circuit, write_circuit
from tsslab.cli import _VERIFY_FLAGS, SOLVE_PROBLEMS, build_parser, main
from tsslab.instance import Graph, Instance, write_instance

TWO_PATH = "tss 2 1\nt 1 1\nt 2 1\ne 1 2\n"

CIRCUIT = """circuit 7
input 1
input 2
input 3
input 4
gate 5 or 1 2
gate 6 or 3 4
gate 7 and 5 6
output 7
"""


@pytest.fixture
def inst_file(tmp_path):
    p = tmp_path / "two.tss"
    p.write_text(TWO_PATH)
    return str(p)


def test_gen_writes_instance(tmp_path, capsys):
    out = tmp_path / "g.tss"
    assert main(["gen", "-n", "4", "-p", "1.0", "--thresholds", "unanimity", "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("tss 4 6")
    assert "t 1 3" in text


def test_gen_reproducible(capsys):
    assert main(["gen", "-n", "10", "-p", "0.5", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    for thresholds in ("constant:1", "constant"):
        assert main(["gen", "-n", "10", "-p", "0.5", "--seed", "3", "--thresholds", thresholds]) == 0
        assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "thresholds",
    [
        "majority:3",
        "unanimity:2",
        "uniform:1",
        "constant:x",
        "foo",
        "constant:0",
        "constant:-1",
        "constant:",
        "constant:1_0",
        "constant:\u0663",
        "constant:+2",
    ],
)
def test_gen_bad_thresholds_exits_2(thresholds, capsys):
    assert main(["gen", "-n", "3", "-p", "0.5", "--thresholds", thresholds]) == 2
    captured = capsys.readouterr()
    assert "--thresholds" in captured.err and captured.out == ""


# sha256 of `gen` stdout, recorded before G(n, p) rows were drawn in blocks.
GEN_STDOUT_SHA256 = {
    1: "8e5b0cc140fa202efe2c071b3120cc2538b843795004a690e880692a45cab64a",
    2: "c66d245c123923aed35aab3b05886e44811fd68a7d87b376f389a22a37c5fc93",
}


@pytest.mark.parametrize("seed", sorted(GEN_STDOUT_SHA256))
def test_gen_stdout_pinned_by_digest(seed, capsys):
    argv = ["gen", "-n", "300", "-p", "0.02", "--thresholds", "constant:2", "--seed", str(seed)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_STDOUT_SHA256[seed]


@pytest.mark.parametrize("flag, n, p", [("-n", "-1", "0.5"), ("-p", "3", "2")])
def test_gen_bad_value_names_flag(flag, n, p, capsys):
    assert main(["gen", "-n", n, "-p", p]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag} must") and captured.out == ""


@pytest.mark.parametrize("n", ["14143", "40000000", "2000000000"])
def test_gen_refuses_draw_above_pair_budget(n, capsys):
    start = time.perf_counter()
    assert main(["gen", "-n", n, "-p", "0", "--seed", "1"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: -n must") and "100000000" in captured.err
    assert captured.out == ""


# Every integer flag: (subcommand argv without the flag, flag, dest).
INT_FLAGS = [
    (["gen", "-n", "1", "-p", "0"], "-n", "n"),
    (["gen", "-n", "1", "-p", "0"], "--seed", "seed"),
    (["solve", "-i", "x"], "-k", "k"),
    (["solve", "-i", "x"], "-l", "ell"),
    (["solve", "-i", "x"], "--ell", "ell"),
    (["solve", "-i", "x"], "--cap", "cap"),
    (["reduce", "clique", "-i", "x", "-o", "y"], "-k", "k"),
    (["reduce", "clique", "-i", "x", "-o", "y"], "--h", "h"),
] + [(["verify", "padding"], flag, name) for flag, name, _ in _VERIFY_FLAGS]


@pytest.mark.parametrize("base, flag, dest", INT_FLAGS)
def test_int_flags_take_plain_decimals(base, flag, dest):
    for value in ("0", "7", "-3", "0042", "123456789012"):
        args = build_parser().parse_args(base + [flag, value])
        assert getattr(args, dest) == int(value)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", "-n", "1_0", "-p", "0", "--seed", "\u0663"], "-n"),
        (["gen", "-n", "10", "-p", "0", "--seed", "\u0663"], "--seed"),
        (["gen", "-n", "+5", "-p", "0"], "-n"),
        (["solve", "-i", "x", "--cap", " 1"], "--cap"),
        (["reduce", "clique", "-i", "x", "-o", "y", "--h", "1_0"], "--h"),
        (["verify", "propagation", "--trials", "\u0663"], "--trials"),
    ],
)
def test_int_flag_not_plain_digits_exits_2(argv, flag, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {flag}" in captured.err and captured.out == ""


def test_propagate_trace_record(inst_file, capsys):
    assert main(["propagate", "-i", inst_file, "-s", "1"]) == 0
    out = capsys.readouterr().out
    assert out == "seed 1\nround 1 2\nrounds 1\nclosed 2\nopen 1\n"


def test_propagate_empty_seed(inst_file, capsys):
    assert main(["propagate", "-i", inst_file, "-s", ""]) == 0
    out = capsys.readouterr().out
    assert "rounds 0\nclosed 0\nopen 0" in out


def test_propagate_seed_list_spaces_after_commas(inst_file, capsys):
    assert main(["propagate", "-i", inst_file, "-s", "1, 2"]) == 0
    assert "seed 1 2\n" in capsys.readouterr().out


@pytest.mark.parametrize("seeds", ["1_0", "\u0661", "+1", "1,,2"])
def test_propagate_non_ascii_or_underscored_seed_exits_2(inst_file, seeds, capsys):
    assert main(["propagate", "-i", inst_file, "-s", seeds]) == 2
    assert "bad seed list" in capsys.readouterr().err


def test_propagate_bad_seed_exits_2(inst_file, capsys):
    assert main(["propagate", "-i", inst_file, "-s", "7"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_solve_target_set(inst_file, capsys):
    assert main(["solve", "-i", inst_file, "--problem", "target-set"]) == 0
    out = capsys.readouterr().out
    assert "problem target-set" in out
    assert "value 1" in out
    assert "optimal true" in out


def test_solve_k_influence(inst_file, capsys):
    assert main(
        ["solve", "-i", inst_file, "--problem", "k-influence", "-k", "1", "--goal", "max"]
    ) == 0
    out = capsys.readouterr().out
    assert "k 1" in out and "value 2" in out


def test_solve_missing_k_exits_2(inst_file, capsys):
    assert main(["solve", "-i", inst_file, "--problem", "k-influence"]) == 2


def test_solve_negative_cap_exits_2(inst_file, capsys):
    assert main(["solve", "-i", inst_file, "--problem", "target-set", "--cap", "-1"]) == 2
    assert "size_cap must be nonnegative" in capsys.readouterr().err


def test_solve_decision_bound(inst_file, capsys):
    args = ["solve", "-i", inst_file, "--problem", "k-influence", "-k", "1",
            "--goal", "min", "--mode", "open"]
    assert main(args + ["-l", "1"]) == 0
    assert "decision true" in capsys.readouterr().out
    assert main(args + ["-l", "0"]) == 0
    assert "decision false" in capsys.readouterr().out


# The path 1-2-3-4 under unanimity thresholds.
P4_UNANIMITY = "tss 4 3\nt 1 1\nt 2 2\nt 3 2\nt 4 1\ne 1 2\ne 2 3\ne 3 4\n"

# Exact `tsslab solve` stdout on P4_UNANIMITY, one case per problem plus a
# capped search that finds nothing.
SOLVE_GOLDEN = [
    (
        "--problem target-set",
        "problem target-set\nseed 1 3\nvalue 2\noptimal true\nexplored 7\n",
    ),
    (
        "--problem target-set --cap 1",
        "problem target-set\nseed none\nvalue none\noptimal false\nexplored 5\n",
    ),
    (
        "--problem greedy-target-set -l 2",
        "problem target-set-greedy\nseed 2 3\nvalue 2\noptimal false\nexplored 7\n"
        "decision true\n",
    ),
    (
        "--problem unanimity-2approx",
        "problem target-set-unanimity-2approx\nseed 1 2 3 4\nvalue 4\noptimal false\n"
        "explored 0\n",
    ),
    (
        "--problem unanimity-min-open -k 2",
        "problem min-open-influence-unanimity\nk 2\ngoal min\nmode open\nseed 1 2\n"
        "value 0\noptimal true\nexplored 0\n",
    ),
    (
        "--problem k-influence -k 1",
        "problem k-influence\nk 1\ngoal max\nmode closed\nseed 2\nvalue 2\n"
        "optimal true\nexplored 5\n",
    ),
]


@pytest.mark.parametrize("flags, stdout", SOLVE_GOLDEN)
def test_solve_golden_stdout(tmp_path, flags, stdout, capsys):
    src = tmp_path / "p4.tss"
    src.write_text(P4_UNANIMITY)
    assert main(["solve", "-i", str(src), *flags.split()]) == 0
    assert capsys.readouterr() == (stdout, "")


def test_solve_golden_covers_every_problem():
    assert {flags.split()[1] for flags, _ in SOLVE_GOLDEN} == set(SOLVE_PROBLEMS)


# The flags each problem reads, besides -l, which every problem reads.
SOLVE_READS = {
    "target-set": ("--cap",),
    "k-influence": ("-k", "--mode", "--goal"),
    "unanimity-min-open": ("-k",),
}
SOLVE_FLAG_VALUE = {"-k": "1", "--mode": "closed", "--goal": "max", "--cap": "2"}


@pytest.mark.parametrize(
    "problem, flag",
    [
        (problem, flag)
        for problem in SOLVE_PROBLEMS
        for flag in SOLVE_FLAG_VALUE
        if flag not in SOLVE_READS.get(problem, ())
    ],
)
def test_solve_unread_flag_exits_2(tmp_path, problem, flag, capsys):
    src = tmp_path / "p4.tss"
    src.write_text(P4_UNANIMITY)
    k = ["-k", "1"] if "-k" in SOLVE_READS.get(problem, ()) else []
    argv = ["solve", "-i", str(src), "--problem", problem, *k, flag, SOLVE_FLAG_VALUE[flag]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: the {problem} problem does not take {flag}\n"
    assert captured.out == ""


def test_solve_names_the_first_unread_flag(inst_file, capsys):
    argv = ["solve", "-i", inst_file, "--problem", "unanimity-min-open", "-k", "1"]
    assert main(argv + ["--mode", "closed", "--goal", "max"]) == 2
    assert capsys.readouterr().err == "error: the unanimity-min-open problem does not take --mode\n"
    argv = ["solve", "-i", inst_file, "--problem", "target-set", "-k", "2", "--goal", "min"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: the target-set problem does not take -k\n"


@pytest.mark.parametrize("problem", ["k-influence", "unanimity-min-open"])
def test_solve_missing_k_exits_2_before_reading_input(tmp_path, problem, capsys):
    src = tmp_path / "p4.tss"
    src.write_text(P4_UNANIMITY)
    for path in (src, tmp_path / "missing.tss"):
        assert main(["solve", "-i", str(path), "--problem", problem]) == 2
        assert capsys.readouterr() == ("", f"error: the {problem} problem needs -k\n")


def test_solve_unset_flags_take_the_solver_defaults(tmp_path, capsys):
    src = tmp_path / "p4.tss"
    src.write_text(P4_UNANIMITY)
    argv = ["solve", "-i", str(src), "--problem", "k-influence", "-k", "2"]
    assert main(argv) == 0
    unset = capsys.readouterr()
    assert main(argv + ["--mode", "closed", "--goal", "max"]) == 0
    assert capsys.readouterr() == unset
    assert main(argv + ["--mode", "open", "--goal", "min"]) == 0
    assert capsys.readouterr() != unset


def test_reduce_mcs_writes_three_files(tmp_path, capsys):
    circ = tmp_path / "c.circ"
    circ.write_text(CIRCUIT)
    out = tmp_path / "out"
    assert main(["reduce", "mcs", "-i", str(circ), "-o", str(out)]) == 0
    assert (out / "instance.tss").exists()
    assert (out / "provenance.txt").exists()
    assert (out / "params.txt").exists()
    assert "reduction circuit-tss" in (out / "params.txt").read_text()
    assert (out / "provenance.txt").read_text().splitlines()[0] == "1 in1"


def test_reduce_clique_params(tmp_path):
    g = tmp_path / "g.tss"
    lines = ["tss 8 28"] + [f"t {v} 1" for v in range(1, 9)]
    lines += [f"e {u} {v}" for u in range(1, 9) for v in range(u + 1, 9)]
    g.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["reduce", "clique", "-i", str(g), "-k", "4", "--rho", "const:1"]
                + ["-o", str(out)]) == 0
    params = (out / "params.txt").read_text()
    assert "g 154" in params and "h 1" in params and "x 154" in params
    assert "vertices 714" in params


def test_reduce_clique_small_k_exits_2(tmp_path, capsys):
    g = tmp_path / "g.tss"
    g.write_text(TWO_PATH)
    assert main(["reduce", "clique", "-i", str(g), "-k", "3", "-o", str(tmp_path / "o")]) == 2
    assert "k >= 4" in capsys.readouterr().err


@pytest.mark.parametrize("source, k", [("g.tss", []), ("missing.tss", ["-k", "4"])])
def test_reduce_error_leaves_no_output_dir(tmp_path, source, k):
    (tmp_path / "g.tss").write_text(TWO_PATH)
    out = tmp_path / "out" / "x"
    assert main(["reduce", "clique", "-i", str(tmp_path / source), *k, "-o", str(out)]) == 2
    assert not (tmp_path / "out").exists()


def test_reduce_min_closed_rho_below_one_exits_2(tmp_path, capsys):
    (tmp_path / "g.tss").write_text(TWO_PATH)
    out = tmp_path / "out"
    args = ["-i", str(tmp_path / "g.tss"), "-k", "2", "--rho", "const:-5", "-o", str(out)]
    assert main(["reduce", "is-min-closed", *args]) == 2
    assert "rho(2) = -5 is below 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rho, bound", [
    ("linear:1", "g = 154"),
    ("poly:1,1000000", "g = 154"),
    ("poly:1,100000000", "g = 154"),
    ("poly:1,0.9", "search limit of 10000000 steps"),
])
def test_reduce_clique_unreachable_rho_exits_2_at_once(tmp_path, capsys, rho, bound):
    g = tmp_path / "g.tss"
    g.write_text(TWO_PATH)
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["reduce", "clique", "-i", str(g), "-k", "4", "--rho", rho, "-o", str(out)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --rho {rho}: ") and bound in err
    assert not out.exists()


@pytest.mark.parametrize("name, flags, message", [
    ("is-min-closed", ["--rho", "poly:1,1100.5"], "overflows a float"),
    ("clique", ["--h", "10000000"], "above the budget of 1000000 vertices plus edges"),
    ("is-min-closed", ["--h", "10000000"], "above the budget of 1000000 vertices plus edges"),
    ("is-min-closed", ["--rho", "const:1000000000"], "above the budget of 1000000 vertices plus edges"),
])
def test_reduce_oversized_padding_exits_2_at_once(tmp_path, capsys, name, flags, message):
    g = tmp_path / "g.tss"
    g.write_text(TWO_PATH)
    out = tmp_path / "out"
    k = "4" if name == "clique" else "2"
    start = time.perf_counter()
    assert main(["reduce", name, "-i", str(g), "-k", k, *flags, "-o", str(out)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {' '.join(flags)}: ") and message in err
    assert not out.exists()


def oversized_source(name):
    """A 300-input OR gate, a threshold-3 star of 250 leaves and K100: each
    asks for over 10^6 vertices plus edges from its reduction."""
    if name == "mcs":
        return write_circuit(build_circuit(["input"] * 300 + ["or"], [()] * 300 + [range(1, 301)]))
    if name == "thresholds-to-two":
        star = Graph(251, [(1, v) for v in range(2, 252)])
        return write_instance(Instance(star, [3] + [1] * 250))
    return write_instance(Instance(Graph(100, list(combinations(range(1, 101), 2))), [1] * 100))


@pytest.mark.parametrize("name", ["mcs", "thresholds-to-two", "is-decision"])
def test_reduce_oversized_build_exits_2_at_once(tmp_path, capsys, name):
    # Bounded at 1 s, the reading of the input included.
    k = ["-k", "100"] if name == "is-decision" else []
    src = tmp_path / "source"
    src.write_text(oversized_source(name))
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["reduce", name, "-i", str(src), *k, "-o", str(out)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: the {name} build would have ") and "above the budget" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["clique", "is-min-closed"])
def test_reduce_h_with_rho_exits_2(tmp_path, name, capsys):
    g = tmp_path / "g.tss"
    g.write_text(TWO_PATH)
    out = tmp_path / "out"
    args = ["-i", str(g), "-k", "4", "--rho", "const:2", "--h", "3", "-o", str(out)]
    assert main(["reduce", name, *args]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --h 3 and --rho") and captured.out == ""
    assert not out.exists()


def test_reduce_h_alone_sets_padding(tmp_path):
    g = tmp_path / "g.tss"
    g.write_text(TWO_PATH)
    for h, flags in (("1", []), ("3", ["--h", "3"])):
        out = tmp_path / f"out{h}"
        assert main(["reduce", "is-min-closed", "-i", str(g), "-k", "2", *flags]
                    + ["-o", str(out)]) == 0
        assert f"h {h}\n" in (out / "params.txt").read_text()


def test_reduce_thresholds_to_two(tmp_path):
    g = tmp_path / "g.tss"
    g.write_text(TWO_PATH)
    out = tmp_path / "out"
    assert main(["reduce", "thresholds-to-two", "-i", str(g), "-o", str(out)]) == 0
    assert "vertices 10" in (out / "params.txt").read_text()


@pytest.mark.parametrize(
    "name, flag, value",
    [
        (name, flag, value)
        for name in ("mcs", "thresholds-to-two", "is-decision")
        for flag, value in (("--h", "5"), ("--rho", "const:9"), ("-k", "4"))
        if not (name == "is-decision" and flag == "-k")
    ]
    + [
        (name, "--mode", "open")
        for name in ("mcs", "thresholds-to-two", "clique", "is-min-closed")
    ],
)
def test_reduce_unread_flag_exits_2(tmp_path, name, flag, value, capsys):
    src = tmp_path / "src"
    src.write_text(CIRCUIT if name == "mcs" else TWO_PATH)
    out = tmp_path / "out"
    k = ["-k", "1"] if name in ("is-decision", "clique", "is-min-closed") else []
    assert main(["reduce", name, "-i", str(src), *k, flag, value, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: the {name} reduction does not take {flag}\n"
    assert captured.out == "" and not out.exists()


def test_reduce_is_decision_mode_defaults_to_closed(tmp_path):
    g = tmp_path / "g.tss"
    g.write_text(TWO_PATH)
    built = {}
    for mode in (None, "closed", "open"):
        out = tmp_path / str(mode)
        flag = [] if mode is None else ["--mode", mode]
        assert main(["reduce", "is-decision", "-i", str(g), "-k", "1", *flag, "-o", str(out)]) == 0
        built[mode] = [(out / f).read_text() for f in ("instance.tss", "params.txt")]
    assert built[None] == built["closed"] != built["open"]


@pytest.mark.parametrize("name", ["clique", "is-decision", "is-min-closed"])
def test_reduce_missing_k_exits_2(tmp_path, name, capsys):
    g = tmp_path / "g.tss"
    g.write_text(TWO_PATH)
    out = tmp_path / "out"
    assert main(["reduce", name, "-i", str(g), "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: the {name} reduction needs -k\n")
    assert not out.exists()


@pytest.mark.parametrize("name, k", [("clique", "4"), ("is-min-closed", "1")])
def test_reduce_h_defaults_to_one(tmp_path, name, k):
    g = tmp_path / "g.tss"
    g.write_text(TWO_PATH)
    built = []
    for flags in ([], ["--h", "1"]):
        out = tmp_path / f"out{len(built)}"
        assert main(["reduce", name, "-i", str(g), "-k", k, *flags, "-o", str(out)]) == 0
        files = ("instance.tss", "provenance.txt", "params.txt")
        built.append([(out / f).read_text() for f in files])
    assert built[0] == built[1]


def test_reduce_names_the_first_unread_flag(tmp_path, capsys):
    circ = tmp_path / "c.circ"
    circ.write_text(CIRCUIT)
    out = tmp_path / "out"
    argv = ["reduce", "mcs", "-i", str(circ), "--mode", "open", "--rho", "const:2", "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: the mcs reduction does not take --rho\n")
    assert not out.exists()


def test_verify_gadget_direction(capsys):
    assert main(["verify", "gadget-direction", "--chains", "3"]) == 0


def test_verify_small_propagation(capsys):
    assert main(["verify", "propagation", "--trials", "20", "--n", "10", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


# Exact `tsslab verify` stdout of every suite at a small scale.  The counts
# pin each suite's RNG stream: reordering a draw changes them.
VERIFY_GOLDEN = [
    (
        "propagation --trials 40",
        [
            "trace-oracle-agreement (40 instances)",
            "single-step-recount (40 sets)",
            "seed-monotonicity (40 pairs)",
        ],
    ),
    (
        "circuit-equivalence --max-inputs 2 --max-gates 2 --trials 10",
        [
            "circuit-optimum-equality (11 enumerated + 10 random circuits)",
            "circuit-assignment-backmap",
        ],
    ),
    (
        "threshold-reduction --trials 40",
        [
            "reduction-thresholds (40 instances)",
            "reduction-bipartite",
            "reduction-forward-transfer",
            "reduction-optimum-preserved",
            "reduction-backward-transfer (100 peels per instance)",
        ],
    ),
    (
        "clique-gap --graphs 20 --random-seeds 200",
        [
            "clique-side-yield (6 graphs, exact 160)",
            "cliquefree-side-bound (14 graphs, bound 154)",
            "cliquefree-random-seeds (200 per graph)",
        ],
    ),
    (
        "independence-decision --graphs 40",
        [
            "independence-decision-vertex-side (186 graph/k pairs)",
            "independence-decision-open",
            "independence-decision-all-seeds",
        ],
    ),
    (
        "min-closed-gap --graphs 40",
        [
            "min-closed-equals-k (146 graph/k pairs, h=3)",
            "min-closed-gap (bound k+4)",
        ],
    ),
    (
        "unanimity-min-open --trials 40",
        [
            "unanimity-min-open-value (245 instance/k pairs)",
            "unanimity-min-open-witness",
        ],
    ),
    (
        "unanimity-cover --trials 40",
        [
            "unanimity-cover-equality (40 graphs)",
            "unanimity-2approx-bound",
            "unanimity-2approx-feasible",
        ],
    ),
    (
        "gadget-direction",
        [
            "gadget-no-backflow (chains up to 5)",
            "gadget-forward-relay (4 rounds per gadget)",
        ],
    ),
    (
        "padding",
        [
            "padding-x-minimal (k=4..10)",
            "padding-h-minimal",
            "padding-min-closed-h",
            "padding-growth-guard",
            "padding-spot-values (154/308/6)",
        ],
    ),
]


@pytest.mark.parametrize("command, passed", VERIFY_GOLDEN)
def test_verify_golden_stdout(command, passed, capsys):
    assert main(["verify", *command.split()]) == 0
    assert capsys.readouterr().out == "".join(f"PASS {line}\n" for line in passed)


def test_verify_golden_covers_every_suite():
    assert {command.split()[0] for command, _ in VERIFY_GOLDEN} == set(verify.SUITES)


def test_readme_lists_every_verify_suite():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("`verify` suites are:", 1)[1].split(".", 1)[0]
    assert re.findall(r"`([a-z-]+)`", listed) == sorted(verify.SUITES)


def test_every_suite_keyword_is_a_verify_flag():
    flags = {name for _, name, _ in _VERIFY_FLAGS}
    for name, suite in verify.SUITES.items():
        assert set(inspect.signature(suite).parameters) <= flags, name


def test_verify_counterexample_exits_1(monkeypatch, capsys):
    def failing():
        raise verify.Counterexample("x", "a\nb")

    monkeypatch.setitem(verify.SUITES, "padding", failing)
    assert main(["verify", "padding"]) == 1
    out = capsys.readouterr().out
    assert out == "FAIL x\n  a\n  b\n"
    assert "PASS" not in out


def test_verify_unknown_flag_exits_2(capsys):
    assert main(["verify", "padding", "--trials", "5"]) == 2
    assert "does not take" in capsys.readouterr().err


# The first unread flag in `_VERIFY_FLAGS` order, whatever the argv order.
@pytest.mark.parametrize(
    "suite, flags, first",
    [
        ("padding", "--graphs 5 --trials 5", "--trials"),
        ("gadget-direction", "--chains 2 --seed 1", "--seed"),
        ("clique-gap", "--graphs 5 --n 3 --trials 5", "--trials"),
    ],
)
def test_verify_names_the_first_unread_flag(suite, flags, first, capsys):
    assert main(["verify", suite, *flags.split()]) == 2
    assert capsys.readouterr() == ("", f"error: the {suite} suite does not take {first}\n")


@pytest.mark.parametrize(
    "suite, flag, value",
    [
        ("propagation", "--trials", "-3"),
        ("threshold-reduction", "--trials", "-2"),
        ("unanimity-min-open", "--trials", "-1"),
        ("circuit-equivalence", "--max-inputs", "-1"),
        ("propagation", "--n", "0"),
        ("threshold-reduction", "--n", "0"),
        ("unanimity-min-open", "--n", "0"),
        ("unanimity-cover", "--n", "0"),
        ("circuit-equivalence", "--max-inputs", "0"),
        ("circuit-equivalence", "--max-gates", "0"),
        ("gadget-direction", "--chains", "0"),
        ("min-closed-gap", "--k-max", "0"),
        ("independence-decision", "--k-max", "0"),
    ],
)
def test_verify_negative_count_exits_2(suite, flag, value, capsys):
    assert main(["verify", suite, flag, value]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and "PASS" not in captured.out


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "nonsense"])
    assert err.value.code == 2


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.tss"
    bad.write_text("tss 1 0\nt 1 0\n")
    assert main(["propagate", "-i", str(bad), "-s", ""]) == 2
    assert "threshold below 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, message",
    [
        (["solve"], "tss 2 1\nt 1 1\nt 2 1\ne 2 1\n", "line 4: edge endpoints must satisfy u < v"),
        (
            ["reduce", "mcs"],
            "circuit 3\ninput 1\ninput 2\ngate 3 xor 1 2\noutput 3\n",
            "line 4: gate kind must be 'and' or 'or'",
        ),
    ],
)
def test_parse_error_of_each_format_exits_2(tmp_path, command, text, message, capsys):
    src = tmp_path / "bad"
    src.write_text(text)
    out = tmp_path / "out"
    assert main([*command, "-i", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


# The public names are part of the contract next to the CLI text.
PUBLIC_NAMES = [
    "GapParameters", "GeneratorConfig", "Graph", "Instance", "InstanceBuilder",
    "MonotoneCircuit", "ParseError", "PropagationTrace", "Propagator",
    "ReducedInstance", "SolveResult", "activate", "activate_round", "build_circuit",
    "choose_gap_padding", "clique_to_max_influence", "evaluate", "generate_random",
    "greedy_target_set", "influence", "is_target_set", "is_to_influence_decision",
    "is_to_min_closed_influence", "k_influence", "map_target_set_to_assignment",
    "mcs_to_tss", "min_open_influence_unanimity", "min_weight_satisfying",
    "optimal_target_set", "parse_circuit", "parse_instance", "reduce_thresholds_to_two",
    "rho_preset", "unanimity_target_set_2approx", "write_circuit", "write_instance",
]


def test_public_names_pinned():
    assert sorted(tsslab.__all__) == PUBLIC_NAMES
    assert all(hasattr(tsslab, name) for name in PUBLIC_NAMES)
