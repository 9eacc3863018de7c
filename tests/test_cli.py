import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import folc
from folc.algebra import herbrand_algebra, int_algebra
from folc.cli import main, state_from_json, state_to_json
from folc.infer import POLICIES
from folc.state import ERROR


@pytest.fixture(autouse=True)
def _restore_the_digit_limit():
    # main lifts CPython's digit limit for int-to-str conversion for the whole process
    get = getattr(sys, "get_int_max_str_digits", None)
    limit = get() if get else None
    yield
    if limit is not None:
        sys.set_int_max_str_digits(limit)


class TestEvalCommand:
    def test_atoms_success(self, capsys):
        code = main(["eval", "--algebra", "int", "--policy", "atoms", "y < z & y = 1 & z = 2"])
        out = capsys.readouterr().out.strip()
        assert out == "<{} | {y/1, z/2}>"
        assert code == 0

    def test_baseline_error_exit(self, capsys):
        code = main(["eval", "--algebra", "int", "--policy", "baseline", "y < z & y = 1 & z = 2"])
        assert capsys.readouterr().out.strip() == "error"
        assert code == 1

    def test_diseq_herbrand(self, capsys):
        code = main(
            [
                "eval",
                "--algebra",
                "herbrand",
                "--sig",
                "f/1,g/2,a/0,b/0",
                "--policy",
                "diseq",
                "f(x) /= f(y) & g(x,b) = g(a,y)",
            ]
        )
        assert capsys.readouterr().out.strip() == "<{} | {x/a, y/b}>"
        assert code == 0

    def test_empty_answer_exit(self, capsys):
        assert main(["eval", "--algebra", "int", "false"]) == 2

    def test_usage_errors_exit_3(self, capsys):
        assert main(["eval", "--algebra", "herbrand", "x = y"]) == 3  # missing --sig
        assert main(["eval", "--algebra", "int", "--policy", "diseq", "x = 1"]) == 3
        assert main(["eval", "--algebra", "int", "x = "]) == 3  # parse error
        assert main(["eval", "--algebra", "int", "--theta", "{x/}", "x = 1"]) == 3

    def test_zero_denominator_is_a_parse_error(self, capsys):
        capsys.readouterr()
        assert main(["eval", "--algebra", "rat", "--policy", "linear", "x = 1/0"]) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == ["folc: zero denominator (at position 6)"]
        assert main(["eval", "--algebra", "rat", "--theta", "{x/2/0}", "x = 1"]) == 3

    @pytest.mark.parametrize(
        "formula",
        [
            " & ".join(f"x{i} = {i}" for i in range(2000)),
            "~" * 3000 + "x = 1",
        ],
        ids=["2000-conjuncts", "3000-negations"],
    )
    def test_deep_nesting_is_a_resource_limit(self, capsys, formula):
        capsys.readouterr()
        assert main(["eval", "--algebra", "int", "--policy", "atoms", formula]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["folc: formula nests too deeply for the recursive walks"]

    @pytest.mark.parametrize(
        "formula, answer, code",
        [
            (
                " & ".join(f"x{i} = {i}" for i in range(800)),
                "<{} | {" + ", ".join(f"x{i}/{i}" for i in sorted(range(800), key=str)) + "}>",
                0,
            ),
            (
                "".join(f"x{i} = {i} & (" for i in range(799)) + "x799 = 799" + ")" * 799,
                "<{} | {" + ", ".join(f"x{i}/{i}" for i in sorted(range(800), key=str)) + "}>",
                0,
            ),
            ("exists y. " * 800 + "y = 1", "<{} | {}>", 0),
            # atoms stores no negation, so the answer is error: exit 1, not the resource limit's 4
            ("~" * 800 + "x = 1", "error", 1),
        ],
        ids=["800-conjuncts", "800-right-nested-conjuncts", "800-exists", "800-negations"],
    )
    def test_deep_nesting_at_the_default_recursion_limit(self, capsys, formula, answer, code):
        # the evaluator spends one Python frame per nesting level, and hash and == none
        capsys.readouterr()
        assert main(["eval", "--algebra", "int", "--policy", "atoms", formula]) == code
        assert capsys.readouterr() == (answer + "\n", "")

    def test_policy_choices_come_from_the_registry(self, capsys):
        assert main(["eval", "--policy", "nope", "x = 1"]) == 3
        assert ", ".join(f"'{name}'" for name in sorted(POLICIES)) in capsys.readouterr().err

    def test_store_and_theta_flags(self, capsys):
        code = main(
            [
                "eval",
                "--algebra",
                "int",
                "--policy",
                "atoms",
                "--store",
                "y < z",
                "--theta",
                "{y/1}",
                "z = 2",
            ]
        )
        assert capsys.readouterr().out.strip() == "<{} | {y/1, z/2}>"
        assert code == 0

    def test_trace_goes_to_stderr_only(self, capsys):
        for argv, out, code, events in _TRACED:
            assert main(["eval", "--trace"] + argv) == code, argv
            captured = capsys.readouterr()
            assert captured.out == out, argv
            assert captured.err == "".join(json.dumps(e) + "\n" for e in events), argv
            # stdout and the exit code are the same without --trace
            assert main(["eval"] + argv) == code
            assert capsys.readouterr() == (out, "")


class TestOutput:
    CHAIN = " & ".join(f"(x{i} = 0 | x{i} = 1)" for i in range(12))  # 4,096 answers, about 0.4 MB
    SHORT = " & ".join(f"(x{i} = 0 | x{i} = 1)" for i in range(8))  # 256 answers, about 0.26 MB of trace

    @staticmethod
    def first_line_then_close(*argv, unbuffered=False):
        """Run folc in a child process, read one line of its stdout, close the pipe, and wait.

        Buffered, the child's write raises BrokenPipeError.  Unbuffered, one
        write to a closed pipe returns a short count, which the text layer
        of sys.stdout ignores, so nothing raises.
        """
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(folc.__file__)))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        cmd = [sys.executable, "-m", "folc.cli", "eval", *argv]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            line = proc.stdout.readline().decode()
            proc.stdout.close()
            err = proc.stderr.read().decode()
            return line, proc.wait(), err

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_a_closed_stdout_exits_quietly(self, unbuffered):
        line, code, err = self.first_line_then_close("--policy", "atoms", self.CHAIN, unbuffered=unbuffered)
        assert line == "<{} | {" + ", ".join(f"x{i}/0" for i in sorted(range(12), key=str)) + "}>\n"
        assert (code, err) == (0, "")

    def test_a_closed_stdout_keeps_the_exit_code_of_the_answer_set(self):
        # 4,097 answers, the first of them error: exit 1 as with stdout open
        line, code, err = self.first_line_then_close("--policy", "baseline", self.CHAIN + " & (y < 1 | y = 0)")
        assert (line, code, err) == ("error\n", 1, "")

    @pytest.mark.parametrize(
        "policy, formula, code, answers",
        [("atoms", SHORT, 0, 256), ("baseline", SHORT + " & (y < 1 | y = 0)", 1, 257)],
        ids=["answers", "error"],
    )
    def test_a_closed_stderr_under_trace_stops_the_trace_only(self, tmp_path, policy, formula, code, answers):
        # one trace line is read and stderr closed: stdout still gets every answer, with the answer set's code
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(folc.__file__)))
        cmd = [sys.executable, "-m", "folc.cli", "eval", "--trace", "--policy", policy, formula]
        with open(tmp_path / "out", "wb") as out:
            with subprocess.Popen(cmd, stdout=out, stderr=subprocess.PIPE, env=env) as proc:
                assert json.loads(proc.stderr.readline())["event"] in ("clause", "infer")
                proc.stderr.close()
                assert proc.wait() == code
        assert len((tmp_path / "out").read_text().splitlines()) == answers

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["x = "], 3),
            (["--policy", "nope", "x = 1"], 3),
            (["--policy", "atoms", " & ".join(f"x{i} = {i}" for i in range(2000))], 4),
        ],
        ids=["parse-error", "usage-error", "too-deep"],
    )
    def test_a_closed_stderr_keeps_the_error_exit_codes(self, argv, code):
        # the pipe's read end is closed before the child starts, so its first write to stderr fails
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(folc.__file__)))
        cmd = [sys.executable, "-m", "folc.cli", "eval", *argv]
        read, write = os.pipe()
        os.close(read)
        try:
            assert subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=write, env=env).returncode == code
        finally:
            os.close(write)

    def test_integers_of_any_length_print(self, capsys):
        a = "9" * 3000
        assert main(["eval", "--policy", "atoms", f"x = {a} * {a}"]) == 0
        assert capsys.readouterr().out == f"<{{}} | {{x/{int(a) ** 2}}}>\n"

    def test_a_long_literal_round_trips(self, capsys):
        literal = "7" * 5000
        assert main(["eval", "--policy", "atoms", f"x = {literal}"]) == 0
        assert capsys.readouterr().out == f"<{{}} | {{x/{literal}}}>\n"


def _infer(policy, state, *output):
    return {"event": "infer", "policy": policy, "state": state, "output": list(output)}


def _clause(kind, formula, state, *output):
    return {"event": "clause", "clause": kind, "formula": formula, "state": state, "output": list(output)}


# One command line per policy: (argv after "eval --trace", stdout, exit code, stderr events).
_TRACED = [
    (
        ["--algebra", "int", "--policy", "baseline", "y < z & y = 1 & z = 2"],
        "error\n",
        1,
        [
            _infer("baseline", "<y < z | {}>", "error"),
            _clause("atom", "y < z", "<{} | {}>", "error"),
            _clause("eq", "y = 1", "error", "error"),
            _clause("and", "y < z & y = 1", "<{} | {}>", "error"),
            _clause("eq", "z = 2", "error", "error"),
            _clause("and", "y < z & y = 1 & z = 2", "<{} | {}>", "error"),
        ],
    ),
    (
        ["--algebra", "int", "--policy", "atoms", "y < z & y = 1 & z = 2"],
        "<{} | {y/1, z/2}>\n",
        0,
        [
            _infer("atoms", "<y < z | {}>", "<y < z | {}>"),
            _clause("atom", "y < z", "<{} | {}>", "<y < z | {}>"),
            _infer("atoms", "<y < z; y = 1 | {}>", "<y < z | {y/1}>"),
            _clause("eq", "y = 1", "<y < z | {}>", "<y < z | {y/1}>"),
            _clause("and", "y < z & y = 1", "<{} | {}>", "<y < z | {y/1}>"),
            _infer("atoms", "<y < z; z = 2 | {y/1}>", "<{} | {y/1, z/2}>"),
            _clause("eq", "z = 2", "<y < z | {y/1}>", "<{} | {y/1, z/2}>"),
            _clause("and", "y < z & y = 1 & z = 2", "<{} | {}>", "<{} | {y/1, z/2}>"),
        ],
    ),
    (
        ["--algebra", "herbrand", "--sig", "f/1,g/2,a/0,b/0", "--policy", "diseq"]
        + ["f(x) /= f(y) & g(x,b) = g(a,y)"],
        "<{} | {x/a, y/b}>\n",
        0,
        [
            _infer("diseq", "<f(x) /= f(y) | {}>", "<f(x) /= f(y) | {}>"),
            _clause("neq", "f(x) /= f(y)", "<{} | {}>", "<f(x) /= f(y) | {}>"),
            _infer("diseq", "<f(x) /= f(y); g(x, b) = g(a, y) | {}>", "<{} | {x/a, y/b}>"),
            _clause("eq", "g(x, b) = g(a, y)", "<f(x) /= f(y) | {}>", "<{} | {x/a, y/b}>"),
            _clause("and", "f(x) /= f(y) & g(x, b) = g(a, y)", "<{} | {}>", "<{} | {x/a, y/b}>"),
        ],
    ),
    (
        ["--algebra", "herbrand", "--sig", "f/1,a/0", "--policy", "unify", "x = f(y) & y = a"],
        "<{} | {x/f(a), y/a}>\n",
        0,
        [
            _infer("unify", "<x = f(y) | {}>", "<{} | {x/f(y)}>"),
            _clause("eq", "x = f(y)", "<{} | {}>", "<{} | {x/f(y)}>"),
            _infer("unify", "<y = a | {x/f(y)}>", "<{} | {x/f(a), y/a}>"),
            _clause("eq", "y = a", "<{} | {x/f(y)}>", "<{} | {x/f(a), y/a}>"),
            _clause("and", "x = f(y) & y = a", "<{} | {}>", "<{} | {x/f(a), y/a}>"),
        ],
    ),
    (
        ["--algebra", "rat", "--policy", "linear", "x + y = 3 & x - y = 1"],
        "<{} | {x/2, y/1}>\n",
        0,
        [
            _infer("linear", "<x + y = 3 | {}>", "<{} | {x/3 - y}>"),
            _clause("eq", "x + y = 3", "<{} | {}>", "<{} | {x/3 - y}>"),
            _infer("linear", "<x - y = 1 | {x/3 - y}>", "<{} | {x/2, y/1}>"),
            _clause("eq", "x - y = 1", "<{} | {x/3 - y}>", "<{} | {x/2, y/1}>"),
            _clause("and", "x + y = 3 & x - y = 1", "<{} | {}>", "<{} | {x/2, y/1}>"),
        ],
    ),
    (
        ["--algebra", "int", "--policy", "literals", "~(x = 1) & x = 0"],
        "<{} | {x/0}>\n",
        0,
        [
            _infer("literals", "<x = 1 | {}>", "<{} | {x/1}>"),
            _clause("eq", "x = 1", "<{} | {}>", "<{} | {x/1}>"),
            _infer("literals", "<~(x = 1) | {}>", "<~(x = 1) | {}>"),
            _clause("not", "~(x = 1)", "<{} | {}>", "<~(x = 1) | {}>"),
            _infer("literals", "<~(x = 1); x = 0 | {}>", "<{} | {x/0}>"),
            _clause("eq", "x = 0", "<~(x = 1) | {}>", "<{} | {x/0}>"),
            _clause("and", "~(x = 1) & x = 0", "<{} | {}>", "<{} | {x/0}>"),
        ],
    ),
]


class TestJsonRoundTrip:
    def test_pair_states(self, capsys):
        code = main(
            [
                "eval",
                "--json",
                "--algebra",
                "herbrand",
                "--sig",
                "c/0,d/0",
                "--policy",
                "diseq",
                "x /= y & x = c",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        J = herbrand_algebra([("c", 0), ("d", 0)])
        states = [state_from_json(d, J) for d in payload]
        assert [state_to_json(s) for s in states] == payload
        (st,) = states
        assert str(st) == "<x /= y | {x/c}>"

    def test_quantified_store_formula_roundtrips(self, capsys):
        # exercise the drop-produced shape: a state printed with a fresh $u
        # name re-parses only through the JSON loader, not the user parser
        from folc.algebra import EMPTY_SUBST, parse_subst
        from folc.oracle import subst_formula
        from folc.semantics import evaluate, make_context
        from folc.infer import get_policy
        from folc.state import Pair, Store, drop_state
        from folc.syntax import parse_formula

        J = int_algebra()
        sigma = Pair(
            Store([parse_formula("u < z", J.signature)]), parse_subst("{u/1}", J)
        )
        dropped = drop_state("u", sigma)
        payload = state_to_json(dropped)
        assert state_from_json(payload, J) == dropped

    def test_fractional_bindings(self, capsys):
        from folc.algebra import rat_algebra

        code = main(["eval", "--json", "--algebra", "rat", "--policy", "linear", "2 * x = 3"])
        payload = json.loads(capsys.readouterr().out)
        assert payload == [{"store": [], "subst": {"x": "3/2"}}]
        (st,) = [state_from_json(d, rat_algebra()) for d in payload]
        assert [state_to_json(st)] == payload
        assert code == 0

    def test_error_state(self, capsys):
        code = main(["eval", "--json", "--algebra", "int", "y < z"])
        payload = json.loads(capsys.readouterr().out)
        assert payload == [{"error": True}]
        assert state_from_json(payload[0], int_algebra()) is ERROR
        assert code == 1


class TestCheckCommand:
    def test_single_formula(self, capsys):
        code = main(
            ["check", "--policy", "literals", "--algebra", "int", "--bound", "-3..3", "~(x=1) & x=0"]
        )
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == []
        assert code == 0

    def test_random_corpus_deterministic(self, capsys):
        argv = [
            "check",
            "--corpus",
            "random",
            "--n",
            "30",
            "--seed",
            "7",
            "--policy",
            "unify",
            "--algebra",
            "herbrand",
            "--sig",
            "f/1,a/0,b/0",
            "--depth",
            "3",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        report = json.loads(first)
        assert report["cases"] == 30 and report["violations"] == []

    def test_bottom_formula_confirms_negation(self, capsys):
        code = main(["check", "--policy", "baseline", "--algebra", "int", "--bound", "0..0", "false"])
        report = json.loads(capsys.readouterr().out)
        assert report["violations"] == [] and code == 0

    def test_wide_bound_costs_no_memory_in_proportion(self, capsys):
        # the cost cap refuses the query's 200,005 candidates before any is
        # drawn, so none may be listed: a list of them alone is 1.6 MB
        tracemalloc.start()
        try:
            code = main(["check", "--algebra", "int", "--bound", "-100000..100000", "x = 1"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(capsys.readouterr().out)["violations"] == []
        assert peak < 1_000_000

    def test_check_requires_input(self, capsys):
        assert main(["check", "--policy", "baseline", "--algebra", "int"]) == 3

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", "0"], "folc: --n must be at least 1"),
            (["--n", "-5"], "folc: --n must be at least 1"),
            (["--depth", "-1"], "folc: --depth must be at least 0"),
        ],
        ids=["n-zero", "n-negative", "depth-negative"],
    )
    def test_empty_bounds_are_usage_errors(self, capsys, flags, message):
        # a 0-case report would pass vacuously
        capsys.readouterr()
        argv = ["check", "--corpus", "random", "--policy", "unify", "--algebra", "herbrand"]
        assert main(argv + ["--sig", "f/1,a/0", *flags]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]

    @pytest.mark.parametrize(
        "sig, message",
        [
            ("f/1", "folc: --sig declares no constant, so the Herbrand universe is empty"),
            ("f/1,f/2,a/0", "folc: signature entry 'f/2': 'f' is already declared (at position 4)"),
            ("exists/1,a/0", "folc: signature entry 'exists/1': 'exists' is a keyword (at position 0)"),
        ],
        ids=["no-constant", "duplicate", "keyword"],
    )
    def test_unusable_signatures_are_usage_errors(self, capsys, sig, message):
        capsys.readouterr()
        argv = ["check", "--corpus", "random", "--n", "3", "--algebra", "herbrand", "--sig", sig]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]


# ---------------------------------------------------------------------------
# Fuzzing the front end: every input ends in a documented exit code


_HERBRAND_TERMS = ["x", "y", "z", "a", "b", "f(x)", "f(a)"]
_ARITH_TERMS = ["x", "y", "z", "0", "1", "-2", "1/2", "x + 1", "y * z", "(x - y)"]
_TOKENS = st.sampled_from(
    ["x", "y", "a", "f", "1", "(", ")", ",", "=", "/=", "<", "<=", "~", "&", "|", "exists",
     ".", "false", "-", "+", "*", "/", "{", "}", ";", "$u1", "g"]
)
_SOUP = st.lists(_TOKENS, max_size=8).map(" ".join)


def _texts(algebra):
    """Formula, store and substitution text: mostly well formed, sometimes token soup."""
    herbrand = algebra == "herbrand"
    terms = st.sampled_from(_HERBRAND_TERMS if herbrand else _ARITH_TERMS)
    rels = st.sampled_from(["=", "/="] if herbrand else ["=", "/=", "<", "<="])
    atoms = st.one_of(st.builds("{} {} {}".format, terms, rels, terms), st.just("false"))
    formulas = st.recursive(
        atoms,
        lambda sub: st.one_of(
            sub.map("~({})".format),
            st.builds("{} & {}".format, sub, sub),
            st.builds("({} | {})".format, sub, sub),
            st.builds("exists {}. {}".format, st.sampled_from("xyz"), sub),
        ),
        max_leaves=4,
    )
    bindings = st.lists(st.builds("{}/{}".format, st.sampled_from("xyz"), terms), max_size=2)
    theta = bindings.map(lambda pairs: "{" + ", ".join(pairs) + "}")
    return formulas | formulas | _SOUP, theta | theta | _SOUP


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["eval", "check"]))
    algebra = draw(st.sampled_from(["herbrand", "int", "rat"]))
    text, theta = _texts(algebra)
    argv = [command, "--algebra", algebra, "--policy", draw(st.sampled_from(sorted(POLICIES)))]
    if algebra == "herbrand":
        argv += ["--sig", "f/1,a/0,b/0"]
    if draw(st.booleans()):
        argv += ["--store", "; ".join(draw(st.lists(text, max_size=2)))]
    if draw(st.booleans()):
        argv += ["--theta", draw(theta)]
    if command == "eval":
        argv += draw(st.sampled_from([[], ["--json"], ["--trace"]]))
        return argv + [draw(text)]
    argv += ["--bound", "-1..1", "--depth", draw(st.sampled_from(["1", "1", "0", "-1"]))]
    if draw(st.booleans()):
        return argv + ["--corpus", "random", "--n", draw(st.sampled_from(["1", "2", "2", "0"]))]
    return argv + [draw(text)]


@settings(max_examples=150)
@given(argv=_argv())
def test_fuzzed_command_lines_end_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    if code in (3, 4):
        assert err.getvalue().splitlines()[-1].startswith("folc: ")
