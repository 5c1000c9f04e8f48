import ast
import io
import json
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lfac
import lfac.catalog
import lfac.verify
from lfac.cli import main
from lfac.verify import CheckReport
from test_dsl import _fuzz_text

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = [
    ("01_eval_iva_l.txt", ["eval", "L(gsp4.IVa(unr(a)))"]),
    ("02_eval_iva_l_json.txt",
     ["eval", "L(gsp4.IVa(unr(a)))", "--format", "json"]),
    ("03_eval_scalar.txt", ["eval", "(a + b)^2/(a*b)"]),
    ("04_eval_rep.txt", ["eval", "unr(a) x sp(1) + ram(eta, b) x sp(0)"]),
    ("05_eval_shift.txt", ["eval", "shift(L(gsp4.VIa(unr(a))), 1/2)"]),
    ("06_eval_x_json.txt",
     ["eval", "gsp4.X(l, unr(b), unr(a))", "--format", "json"]),
    ("07_eval_theta_json.txt",
     ["eval", "theta(gl2.st(unr(a)), gl2.st(unr(-a)))", "--format", "json"]),
    ("08_eval_va_unicode.txt", ["eval", "L(gsp4.Va(unr(a)))", "--unicode"]),
    ("09_lfactor_iia.txt", ["lfactor", "gsp4.IIa(unr(a), unr(b))"]),
    ("10_lfactor_via_st.txt", ["lfactor", "gsp4.VIa(unr(a))", "gl2.st()"]),
    ("11_lfactor_via_st_json.txt",
     ["lfactor", "gsp4.VIa(unr(a))", "gl2.st()", "--format", "json"]),
    ("12_lfactor_gl2_pair.txt",
     ["lfactor", "gl2.st(unr(a))", "gl2.ps(unr(b), unr(a*b))"]),
    ("13_poles_exc_via.txt",
     ["poles", "--exceptional", "gsp4.VIa(unr(a))", "gl2.st()"]),
    ("14_poles_exc_via_json.txt",
     ["poles", "--exceptional", "gsp4.VIa(unr(a))", "gl2.st()",
      "--format", "json"]),
    ("15_poles_sub_i.txt",
     ["poles", "--subregular", "gsp4.I(unr(a), unr(b), unr(c))"]),
    ("16_poles_sub_iiia_json.txt",
     ["poles", "--subregular", "gsp4.IIIa(unr(a), unr(b))",
      "--format", "json"]),
    ("17_split_nov_via.txt", ["split", "--nov", "gsp4.VIa(unr(a))", "gl2.st()"]),
    ("18_split_ps_via_json.txt",
     ["split", "--ps", "gsp4.VIa(unr(a))", "--format", "json"]),
    ("19_ideals_via.txt", ["ideals", "gsp4.VIa(unr(a))"]),
    ("20_verify_lemma71.txt",
     ["verify", "--suite", "lemma71", "--trials", "5", "--seed", "2"]),
]


@pytest.mark.parametrize("golden, argv", CASES, ids=[c[0][:-4] for c in CASES])
def test_golden_output(capsys, golden, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


_NO_SYMPY = """
import io, json, sys
from contextlib import redirect_stdout
import lfac
from lfac.cli import main
from lfac.verify import run_suite
for suite in ("lemma71", "theoremA", "soudry"):
    assert all(r.passed for r in run_suite(suite, 3, 5))
outs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    outs.append(out.getvalue())
print(json.dumps({"outs": outs, "sympy": "sympy" in sys.modules}))
"""


def _fresh_child(argvs, script=_NO_SYMPY, flags=()):
    src = str(pathlib.Path(lfac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, *flags, "-c", script,
                           json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# sums-style requests: Satake values that are two-term sums, as in the
# sums benchmark workload
SUM_ARGVS = [
    ["lfactor", "gsp4.IIa(unr(a*v + b), unr(a*v + b*v))", "gl2.st(unr(a + b*v))"],
    ["eval", "gsp4.free(unr(b + b*v) x sp(1) + unr(a + b*v)"
             " + unr(b + b*v)^2*unr(a + b*v)^-1, unr(b + b*v)^2)"],
    ["poles", "--exceptional", "gsp4.VIa(unr(a + b))", "gl2.st(unr(a*v + b*v))"],
]


def _in_process(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def test_sympy_loads_only_for_a_genuine_sum():
    # only a gcd that _cancel cannot decide imports sympy: not the suites,
    # not the 20 golden cases, not a sum of constants or of like monomials;
    # nor a product of reduced fractions whose gcd is decided by exact
    # division, either way round, as in sums-style requests; nor a sum over
    # a denominator of two terms, whose gcds are decided the same way.  A
    # quotient whose gcd needs a multivariate gcd does
    sums = [["eval", "1 + 1"], ["eval", "a*v + a*v"],
            ["eval", "(a^2 - b^2)/(a - b)"],
            ["eval", "1/(a*v + a) * (a*v + a)^2"],
            ["eval", "1/(a+b) + 1"], ["eval", "a/(a+b) - b/(a+b)"],
            ["eval", "(a+b)/(a+b)^2"], ["eval", "1/(a+b) + 1/(a+b)^2"]]
    child = _fresh_child([argv for _, argv in CASES] + sums + SUM_ARGVS)
    assert child["sympy"] is False
    assert child["outs"] == [(GOLDEN / g).read_text(encoding="utf-8")
                             for g, _ in CASES] \
        + ["2\n", "2*a*v\n", "a + b\n", "a*v + a\n", "(a + b + 1)/(a + b)\n",
           "(a - b)/(a + b)\n", "1/(a + b)\n",
           "(a + b + 1)/(a^2 + 2*a*b + b^2)\n"] \
        + [_in_process(argv) for argv in SUM_ARGVS]
    child = _fresh_child([["eval", "(a^2 - b^2)/(a^3 - b^3)"]])
    assert child["sympy"] is True
    assert child["outs"] == ["(a + b)/(a^2 + a*b + b^2)\n"]


# every import inside a function body of the package, by module and function
LAZY_IMPORTS = {
    ("catalog", "_shape_type", ".dsl"),
    ("catalog", "ctor", ".dsl"),
    ("cli", "_cmd_verify", ".verify"),
    ("scalar", "_exact_quotient", "heapq"),
    ("scalar", "_ring", "sympy"),
    ("scalar", "_ring", "sympy.polys.orderings"),
    ("scalar", "_ring", "sympy.polys.rings"),
}


def test_only_the_documented_imports_are_lazy():
    # a function-level import is a load deferred on purpose, so each one is
    # listed; _ring is the one way into sympy
    found = set()
    for path in pathlib.Path(lfac.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    dots = "." * node.level
                    names = [dots + node.module] if node.module else \
                        [dots + alias.name for alias in node.names]
                else:
                    continue
                found |= {(path.stem, fn.name, name) for name in names}
    assert found == LAZY_IMPORTS


_LAZY = """
import io, json, sys
from contextlib import redirect_stdout
import lfac
from lfac.cli import main

def loaded():
    return [m for m in ("dataclasses", "lfac.verify") if m in sys.modules]

seen, outs = [loaded()], []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    outs.append(out.getvalue())
    seen.append(loaded())
from lfac import CheckReport, run_suite
assert run_suite("lemma71", 2, 1)[0].passed and CheckReport("x").passed
seen.append(loaded())
from lfac import *
missing = [n for n in lfac.__all__ if n not in globals()]
print(json.dumps({"seen": seen, "outs": outs, "missing": missing}))
"""


def test_verify_loads_only_when_used():
    # import lfac and the 19 goldens that do not verify load neither the
    # dataclasses module nor the suites; asking lfac for a suite name loads
    # the suites, and the star import still gives every name
    plain = [(g, argv) for g, argv in CASES if argv[0] != "verify"]
    assert len(plain) == 19
    child = _fresh_child([argv for _, argv in plain], _LAZY)
    assert child["seen"] == [[]] * 20 + [["lfac.verify"]]
    assert child["outs"] == [(GOLDEN / g).read_text(encoding="utf-8")
                             for g, _ in plain]
    assert child["missing"] == []


_BARE = """
import json, sys
import lfac
heavy = ("importlib.resources", "typing", "pathlib", "zipfile", "tempfile")
print(json.dumps({"catalog": sorted(lfac.catalog.default_catalog()),
                  "loaded": [m for m in heavy if m in sys.modules]}))
"""


def test_import_loads_no_resource_machinery():
    # without site (python -S), which may import some of these itself,
    # import lfac reads the shipped catalog with a plain open
    child = _fresh_child([], _BARE, flags=["-S"])
    assert child["catalog"] == sorted(lfac.catalog.default_catalog())
    assert child["loaded"] == []


def test_syntax_error_exit_2(capsys):
    assert main(["eval", "unr(a"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert "line 1" in err


def test_json_error_envelope(capsys):
    assert main(["eval", "unr(a", "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    doc = json.loads(out)
    assert doc["schema"] == "lfac-1"
    assert doc["error"]["type"] == "syntax"
    assert "')'" in doc["error"]["message"]


def test_domain_error_exit_2(capsys):
    assert main(["eval", "gsp4.IIIa(unr(a), unr(a))"]) == 2
    _, err = capsys.readouterr()
    assert "chi1/chi2 nontrivial" in err


@pytest.mark.parametrize("expr", [
    "unr(0)", "ram(eta, 0)", "unr(a)/unr(0)", "irr(1, t)", "sp(-1)", "ram(q)",
    "(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1", "1" * 5000,
    "a^" + "1" * 5000, "2^20000", "sp(1001)", "unr(a) x sp(1001)",
    "(unr(a) x sp(501)) x sp(500)", "sp(2^20000)",
    "sp(30) x sp(30) x sp(30) x sp(30)",
    "L(sp(20) x sp(20) x sp(20) x sp(20) x sp(20))",
    "(sp(30) x sp(30) x sp(30)) + (sp(30) x sp(30) x sp(30))",
    "(a + b)^99999999", "(a + b)^-100000", "3^20000000", "(2*a)^20000000",
    "2^14000 * 2^14000",
], ids=["unr0", "ram0", "ratio0", "irr1", "sp-1", "ram-q", "parens",
        "minus-chain", "long-literal", "long-exponent", "unprintable",
        "sp-past-bound", "block-past-bound", "tensor-past-bound",
        "sp-huge", "tensor-blocks-past-bound", "tensor-chain-lfactor",
        "sum-blocks-past-bound", "power-huge", "power-past-bound",
        "monomial-power-huge", "monomial-power-coefficient",
        "unprintable-product"])
def test_bad_value_exit_2(capsys, expr):
    assert main(["eval", "--", expr]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_long_flat_sum_exit_0(capsys):
    assert main(["eval", "--", "+".join(["1"] * 3000)]) == 0
    assert capsys.readouterr() == ("3000\n", "")


@pytest.mark.parametrize("flag, value", [
    ("--pool", "0"), ("--pool", "-2"), ("--budget", "0"), ("--budget", "-1"),
    ("--trials", "-1")])
def test_verify_rejects_bad_counts(capsys, flag, value):
    with pytest.raises(SystemExit) as ex:
        main(["verify", "--trials", "1", flag, value])
    assert ex.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_verify_refuses_a_pool_past_the_letters(capsys):
    # the draws name 23 letters; a larger pool used to run with 23
    assert main(["verify", "--trials", "1", "--pool", "24"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "at most 23" in err
    assert main(["verify", "--trials", "1", "--pool", "23"]) == 0


def test_lemma71_budget_is_held_to_one_tensor(capsys):
    # w (x) sp(1) is built and held to BLOCK_MAX; (w (x) sp(1)) (x) sp(1)
    # is only read for its L-factor, so a draw whose second tensor would
    # be too large still runs
    argv = ["verify", "--suite", "lemma71", "--trials", "20", "--seed", "1"]
    assert main(argv + ["--budget", "400"]) == 0
    assert capsys.readouterr() == ("lemma71: trials=20 failures=0 PASS\n", "")
    assert main(argv + ["--budget", "600"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: representation would have 1010 "
                                 "blocks, more than 1000\n")


def test_pairing_needs_gl2_on_the_right(capsys):
    assert main(["lfactor", "gsp4.VIa(unr(a))", "unr(b)"]) == 2
    _, err = capsys.readouterr()
    assert "GL(2)" in err


TWIN = ["gsp4.X(t1, unr(b), unr(a))", "gl2.sc(t1, unr(b))"]
TWIN_REFUSAL = ("unramified-twist-of-dual pair (t1, t1): L-factor not "
                "determined by declared data")


@pytest.mark.parametrize("argv, message", [
    (["poles", "--subregular", "unr(a)"],
     "'unr(a)' is not a GSp(4) parameter"),
    (["poles", "--exceptional", "gsp4.VIa(unr(a))", "a"],
     "'a' is not a GL(2) parameter"),
    (["split", "--nov", "gl2.st()", "gl2.st()"],
     "'gl2.st()' is not a GSp(4) parameter"),
    (["split", "--ps", "L(gsp4.VIa(unr(a)))"],
     "'L(gsp4.VIa(unr(a)))' is not a GSp(4) parameter"),
    (["ideals", "sp(1)"], "'sp(1)' is not a GSp(4) parameter"),
    (["lfactor", "gsp4.VIa(unr(a))", "unr(b)"],
     "'unr(b)' is not a GL(2) parameter"),
    (["lfactor"] + TWIN, TWIN_REFUSAL),
    (["split", "--nov"] + TWIN, TWIN_REFUSAL),
    (["poles", "--exceptional"] + TWIN, TWIN_REFUSAL),
], ids=["subregular", "exceptional", "nov", "ps", "ideals", "pairing",
        "twin-lfactor", "twin-nov", "twin-exceptional"])
def test_refusal_text_in_both_formats(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    assert main(argv + ["--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["error"]["message"] == message


def test_missing_catalog_file_exit_2(capsys):
    assert main(["eval", "a", "--catalog", "/no/such/file"]) == 2
    _, err = capsys.readouterr()
    assert err.startswith("error: ")


def test_non_utf8_catalog_file_exit_2(tmp_path, capsys):
    f = tmp_path / "cat.txt"
    f.write_bytes(b"\xff\xfecatalog-format 1\n")
    assert main(["eval", "a", "--catalog", str(f)]) == 2
    _, err = capsys.readouterr()
    assert err.startswith("error: %s: not UTF-8" % f) and err.count("\n") == 1


def _catalog_file(tmp_path):
    f = tmp_path / "cat.txt"
    f.write_text("catalog-format 1\n"
                 "type VIa\n"
                 "params sigma:char\n"
                 "block sigma sp 3\n"
                 "similitude sigma^2\n")
    return str(f)


def test_catalog_override(tmp_path, capsys):
    f = _catalog_file(tmp_path)
    assert main(["eval", "L(gsp4.VIa(unr(a)))", "--catalog", f]) == 0
    out, _ = capsys.readouterr()
    assert out == "1/(1 - a*v^-3*X)\n"


def test_catalog_file_type_evaluates_and_reads_back(three_shape_catalog,
                                                    capsys):
    assert main(["eval", "gsp4.T(unr(a))", "--catalog",
                 three_shape_catalog]) == 0
    out, _ = capsys.readouterr()
    assert out == "gsp4.T(unr(a))\n"


def test_catalog_file_replaces_data_file_types(three_shape_catalog, tmp_path,
                                               capsys):
    # a file type replaces the shipped type of its name, and the shipped
    # types it does not name stay
    f = tmp_path / "cat.txt"
    f.write_text("catalog-format 1\ntype IIa\nparams sigma:char\n"
                 "block sigma sp 3\nsimilitude sigma^2\n")
    assert main(["eval", "L(gsp4.IIa(unr(a)))", "--catalog", str(f)]) == 0
    assert capsys.readouterr().out == "1/(1 - a*v^-3*X)\n"
    assert main(["eval", "gsp4.IIa(unr(a), unr(b))", "--catalog",
                 str(f)]) == 2
    assert capsys.readouterr().err == "error: gsp4.IIa takes 1 argument\n"
    for expr in ("gsp4.IIa(unr(a), unr(b))", "gsp4.I(unr(a), unr(b), unr(c))"):
        assert main(["eval", expr, "--catalog", three_shape_catalog]) == 0
        assert capsys.readouterr().out == expr + "\n"


def test_catalog_file_read_once(tmp_path, capsys, monkeypatch):
    f = _catalog_file(tmp_path)
    reads = []
    load = lfac.catalog.load_catalog
    monkeypatch.setattr(lfac.catalog, "load_catalog",
                        lambda path=None: reads.append(path) or load(path))
    assert main(["lfactor", "gsp4.VIa(unr(a))", "gl2.st()",
                 "--catalog", f]) == 0
    assert reads.count(f) == 1


def test_verify_has_no_catalog_flag(capsys):
    with pytest.raises(SystemExit) as ex:
        main(["verify", "--trials", "1", "--catalog", "cat.txt"])
    assert ex.value.code == 2


def test_verify_json_reports(capsys):
    assert main(["verify", "--suite", "soudry", "--trials", "3",
                 "--seed", "4", "--format", "json"]) == 0
    out, _ = capsys.readouterr()
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["reports"][0]["suite"] == "soudry"
    assert doc["reports"][0]["trials"] >= 3


def test_ideals_json_payload(capsys):
    # the command prints both generators as factored objects
    assert main(["ideals", "gsp4.VIa(unr(a))", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc["ideals"]) == ["J", "K"]
    assert [doc["ideals"][k]["kind"] for k in "JK"] == ["factored", "factored"]
    assert doc["ideals"]["K"]["text"] == "(1 - a*v^-1*X)"


def test_verify_failure_exit_1(capsys, monkeypatch):
    def losing_suite(trials, seed, profile):
        report = CheckReport("lemma71", trials)
        report.record(0, seed, "forced failure for the exit-code contract")
        return report
    monkeypatch.setitem(lfac.verify.SUITES, "lemma71", losing_suite)
    assert main(["verify", "--suite", "lemma71", "--trials", "2"]) == 1
    out, _ = capsys.readouterr()
    assert "FAIL" in out


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_exits_2_without_traceback(fmt, unbuffered):
    # the reader goes away first: an unbuffered stdout fails in the print,
    # a buffered one in the flush; either way it is an io error, exit 2
    src = str(pathlib.Path(lfac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    with subprocess.Popen([sys.executable, "-m", "lfac", "verify",
                           "--trials", "3", "--format", fmt], env=env,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=300) == 2
    assert err == "error: [Errno 32] Broken pipe\n"


# ------------------------------------------------------------ fuzzed argv

@pytest.fixture(scope="module")
def catalog_paths(tmp_path_factory, three_shape_catalog):
    d = tmp_path_factory.mktemp("catalogs")
    (d / "empty.txt").write_text("")
    (d / "latin1.txt").write_bytes(b"\xff\xfecatalog-format 1\n")
    (d / "malformed.txt").write_text("catalog-format 1\ntype T\nblock\n")
    (d / "undeclared.txt").write_text(
        "catalog-format 1\ntype XIa\nparams rho:irred sigma:char\n"
        "require trivial-det tau\nblock sigma sp 0\nsimilitude sigma^2\n")
    (d / "long_sp.txt").write_text(
        "catalog-format 1\ntype T\nparams sigma:char\nblock sigma sp %s\n"
        "similitude sigma^2\n" % ("9" * 5000))
    (d / "big_sp.txt").write_text(
        "catalog-format 1\ntype T\nparams sigma:char\nblock sigma sp 1001\n"
        "similitude sigma^2\n")
    return [str(d / "missing.txt"), str(d), str(d / "empty.txt"),
            str(d / "latin1.txt"), str(d / "malformed.txt"),
            str(d / "undeclared.txt"), str(d / "long_sp.txt"),
            str(d / "big_sp.txt"),
            _catalog_file(d), three_shape_catalog]


@pytest.mark.parametrize("expr", ["gsp4.T(unr(a))", "gsp4.XIa(l, unr(a))"])
def test_every_catalog_path_exits_cleanly(catalog_paths, expr, capsys):
    # argparse refuses most fuzzed argv, so each path is also run once here
    for path in catalog_paths:
        assert main(["eval", expr, "--catalog", path]) in (0, 2), path
        _, err = capsys.readouterr()
        assert not err or err.startswith("error: ") and err.count("\n") == 1


_EXPRS = st.one_of(_fuzz_text, st.sampled_from(["1" * 5000, "2^20000",
                                                "gsp4.T(unr(a))"]))


_COMMON = ["--format", "--unicode"]
# per subcommand: (positional counts, option groups with their arity, the
# flags beyond --format and --unicode)
_SUBCOMMANDS = {
    "eval": ([1], [], ["--catalog"]),
    "lfactor": ([1, 2], [], ["--catalog"]),
    "poles": ([0], [("--exceptional", 2), ("--subregular", 1)], ["--catalog"]),
    "split": ([0], [("--nov", 2), ("--ps", 1)], ["--catalog"]),
    "ideals": ([1], [], ["--catalog"]),
    "verify": ([0], [], ["--suite", "--seed", "--budget", "--pool",
                         "--irred"]),
}
_ALL_FLAGS = sorted({f for _, _, fl in _SUBCOMMANDS.values() for f in fl}
                    | {"--trials", "--nov", "--subregular", "--frobnicate"})


def _flag(draw, flag, catalogs):
    value = {
        "--format": st.sampled_from(["json", "text", "json", "yaml"]),
        "--catalog": st.sampled_from(catalogs),
        "--suite": st.sampled_from(["lemma71", "theoremA", "soudry", "all",
                                    "nope"]),
        "--seed": st.sampled_from(["3", "-4", "12345678901234567890", "1.5"]),
        "--trials": st.sampled_from(["-1", "0", "1"]),
        "--budget": st.sampled_from(["1", "2", "0"]),
        "--pool": st.sampled_from(["1", "3", "-2"]),
        "--nov": _EXPRS, "--subregular": _EXPRS,
    }.get(flag)
    return [flag] if value is None else [flag, draw(value)]


@st.composite
def _argv(draw, catalogs):
    """argv that argparse mostly accepts: the subcommand's own positional
    count and flags, with about one draw in eight given a bogus subcommand,
    a wrong positional count or a flag of another subcommand."""
    bogus = draw(st.integers(0, 7)) == 0
    sub = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    counts, groups, own = _SUBCOMMANDS[sub]
    argv = [sub]
    if sub == "verify":  # 100 trials per suite unless told otherwise
        argv += ["--trials", draw(st.sampled_from(["0", "1"]))]
    if groups:
        flag, arity = draw(st.sampled_from(groups))
        argv += [flag] + [draw(_EXPRS) for _ in range(arity)]
    for flag in draw(st.lists(st.sampled_from(_COMMON + own), max_size=3,
                              unique=True)):
        argv += _flag(draw, flag, catalogs)
    n = draw(st.sampled_from(counts))
    if bogus:
        kind = draw(st.sampled_from(["sub", "count", "flag"]))
        if kind == "sub":
            argv[0] = "frobnicate"
        elif kind == "count":
            n += draw(st.sampled_from([-1, 1]))
        else:
            argv += _flag(draw, draw(st.sampled_from(_ALL_FLAGS)), catalogs)
    exprs = [draw(_EXPRS) for _ in range(max(n, 0))]
    return argv + ["--"] + exprs if exprs else argv


def test_fuzzed_argv_exits_cleanly(catalog_paths):
    reached = []

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def run(data):
        argv = data.draw(_argv(catalog_paths))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as ex:  # argparse refuses the command line
                assert ex.code == 2
                reached.append(False)
                return
        reached.append(True)
        assert code in (0, 1, 2)
        if code == 2:
            err = err.getvalue()
            if err:
                assert err.startswith("error: ") and err.count("\n") == 1
            else:
                assert set(json.loads(out.getvalue())) == {"schema", "error"}

    run()
    # the property must reach the program, not only argparse
    assert sum(reached) >= len(reached) / 2
