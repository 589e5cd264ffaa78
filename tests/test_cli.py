import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amoebas
from amoebas import archimedean, cli, laurent, parsing, plot, polyhedral, tropical
from amoebas.cli import main, parse_halfspace
from amoebas.classify import Halfspace
from amoebas.errors import InternalInvariantError

from conftest import (
    LARGE_RANK_2,
    RANK_4_SYSTEM,
    WIDE_HALFSPACE,
    complex_from_json,
    complexes_equal,
    tripod,
)
from test_tropical import primes_poly


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SYSTEM_QZ = {
    "rank": 3,
    "field": "Q(z)",
    "constraints": [
        {"f": "x1 - x2 - 1"},
        {"f": "x1 - x3 - (1/z)"},
        {"f": "x2 - x3 - (1/z) + 1"},
    ],
}


TRIANGLE_SYSTEM = {"rank": 2, "field": "Q", "constraints": [{"f": "x1 + x2 + 1"}]}
QZ_CURVE = "z*x1+(z-1)*x2+(z-2)"
Q_CURVE = "x1*x2-2*x1-2*x2+1"
BND = "dir:1,1,0 bnd:0,0,1"


@pytest.fixture()
def system_file(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(SYSTEM_QZ))
    return str(path)


class TestParseHalfspace:
    def test_direction_only(self):
        H = parse_halfspace("dir:1,1", 2)
        assert H == Halfspace(2, (1, 1))

    def test_with_boundary(self):
        H = parse_halfspace("dir:1,1,0 bnd:0,0,1", 3)
        assert H.direction == (1, 1, 0) and H.boundary == ((0, 0, 1),)

    def test_multiple_boundary_vectors(self):
        H = parse_halfspace("dir:1,1,1 bnd:1,-1,0;0,1,-1", 3)
        assert len(H.boundary) == 2


class TestCommands:
    def test_trop_matches_shifted_tripod(self, capsys):
        code, out, _ = run_cli(
            capsys, "trop", "--f", "z*x1+(z-1)*x2+(z-2)", "--place", "q:z"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1 and payload["place"] == "q:z"
        C = complex_from_json(payload["complex"])
        assert complexes_equal(C, tripod((-1, 0)))

    def test_adelic(self, capsys):
        code, out, _ = run_cli(capsys, "adelic", "--f", "x1*x2-2*x1-2*x2+1")
        assert code == 0
        payload = json.loads(out)
        assert [s["place"] for s in payload["special"]] == ["p:2"]

    def test_check_halfspace_system(self, capsys, system_file):
        code, out, _ = run_cli(
            capsys,
            "check-halfspace",
            "--system",
            system_file,
            "--halfspace",
            "dir:1,1,0 bnd:0,0,1",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "disjoint"

    def test_product_formula(self, capsys):
        code, out, _ = run_cli(capsys, "product-formula", "--a", "(z^2-1)/z")
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] == 0 and payload["exact_zero"]

    def test_classify_binomial(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--f", "x1*x2-1", "--halfspace", "dir:1,1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["conclusion_case"] == 3
        assert payload["report"]["violation"] is False

    def test_ekl_check(self, capsys):
        code, out, _ = run_cli(capsys, "ekl-check", "--f", "x1*x2-2*x1-2*x2+1")
        assert code == 0
        assert json.loads(out)["report"]["side"] == "none-found"

    def test_plot_complex(self, capsys, tmp_path):
        out_path = str(tmp_path / "trop.svg")
        code, out, _ = run_cli(
            capsys, "plot", "--f", "x1+x2+1", "--place", "generic", "--out", out_path
        )
        assert code == 0
        svg = open(out_path).read()
        assert svg.startswith("<svg") and "line" in svg

    def test_plot_arch_scan(self, capsys, tmp_path):
        out_path = str(tmp_path / "scan.svg")
        code, out, _ = run_cli(
            capsys,
            "plot",
            "--f",
            "x1+x2-2",
            "--arch-scan",
            "--grid-n",
            "15",
            "--out",
            out_path,
        )
        assert code == 0
        assert "<rect" in open(out_path).read()


# six special places, one per coefficient's prime
SIX_PLACES_F = (
    "(-1/4)*x1^-2*x2 + 3*x1*x2^2 + (5/2)*x2^-1 + 7*x1^2 + (-11)*x1^-1*x2^-2 + 13*x2"
)


def test_adelic_matches_trop_run_alone_at_each_place(capsys):
    # adelic builds the loci of all places on one support table; trop at
    # one place, on a table cleared first, must give each of them
    code, out, _ = run_cli(capsys, "adelic", "--f", SIX_PLACES_F)
    assert code == 0
    am = json.loads(out)
    assert [e["place"] for e in am["special"]] == ["p:11", "p:13", "p:2", "p:3", "p:5", "p:7"]
    for place, expected in [("generic", am["generic"])] + [
        (e["place"], e["complex"]) for e in am["special"]
    ]:
        tropical._support.cache_clear()
        code, out, _ = run_cli(capsys, "trop", "--f", SIX_PLACES_F, "--place", place)
        assert code == 0 and json.loads(out)["complex"] == expected


def test_prevariety_bytes_do_not_rest_on_the_point_cache(capsys, tmp_path):
    # the relative-interior point cache outlives a command: a prevariety
    # after other commands in the same process (itself among them, so
    # every point is a hit) and one on a cleared cache print the same bytes
    path = tmp_path / "rank4.json"
    path.write_text(json.dumps(RANK_4_SYSTEM))
    argv = ["prevariety", "--system", str(path), "--place", "p:3"]
    for other in (
        argv,
        ["prevariety", "--system", str(path)],
        ["check-halfspace", "--system", str(path), "--halfspace", "dir:-1,0,0,1"],
        ["adelic", "--f", SIX_PLACES_F],
    ):
        assert run_cli(capsys, *other)[0] == 0
    warm = run_cli(capsys, *argv)
    polyhedral.keyed_interior_point.cache_clear()
    assert run_cli(capsys, *argv) == warm and warm[0] == 0


class TestErrorsAndDeterminism:
    def test_syntax_error_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "trop", "--f", "x1 + + * x2")
        assert code == 2
        assert json.loads(err)["error"]["code"] == "syntax-error"

    def test_monomial_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "trop", "--f", "7*x1")
        assert code == 2
        assert json.loads(err)["error"]["code"] == "monomial-input"

    def test_bad_place_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "trop", "--f", "x1+1", "--place", "p:6")
        assert code == 2
        assert json.loads(err)["error"]["code"] == "invalid-place"

    def test_empty_place_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "trop", "--f", "x1+1", "--place", "")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "invalid-place"

    @pytest.mark.parametrize(
        "argv",
        [["--f", "x99999999999999999999"], ["--f", "x1+1", "--rank", "100000000"]],
        ids=["index", "rank"],
    )
    def test_rank_bound_exits_2_in_bounded_time(self, argv):
        # in a child process, so that a broken bound fails by timeout
        src = os.path.dirname(os.path.dirname(amoebas.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "amoebas.cli", "trop", *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 2 and done.stdout == ""
        assert json.loads(done.stderr)["error"]["code"] == "rank-too-large"

    @pytest.mark.parametrize(
        "f",
        ["(x1+x2+1)^300", "2^99999999*x1+1", "((z+1)^64)^64*x1+1"],
        ids=["terms", "integer", "z-degree"],
    )
    def test_expansion_bound_exits_2_in_bounded_time(self, f):
        # in a child process, so that a broken bound fails by timeout
        src = os.path.dirname(os.path.dirname(amoebas.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "amoebas.cli", "trop", "--f", f],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 2 and done.stdout == ""
        assert json.loads(done.stderr)["error"]["code"] == "expansion-too-large"

    def test_wide_boundary_classify_in_bounded_time(self, tmp_path):
        # in a child process, so that a quotient map that hangs fails by timeout
        path = tmp_path / "rank24.json"
        path.write_text(json.dumps(
            {"rank": 24, "field": "Q", "constraints": [{"f": "x1 + 1"}]}
        ))
        src = os.path.dirname(os.path.dirname(amoebas.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "amoebas.cli", "classify", "--system", str(path),
             "--halfspace", WIDE_HALFSPACE, "--image-f", "x1 + 1"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0
        assert json.loads(done.stdout)["report"]["conclusion_case"] == 3

    def test_corner_locus_bound_exits_2_in_bounded_time(self):
        # in a child process, so that a broken bound fails by timeout: 120
        # terms of rank 2 ran past 60 s before the corner locus was bounded
        src = os.path.dirname(os.path.dirname(amoebas.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "amoebas.cli", "trop", "--f", LARGE_RANK_2, "--place", "p:2"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 2 and done.stdout == ""
        assert json.loads(done.stderr)["error"]["code"] == "corner-locus-too-large"

    def test_image_on_hypersurface_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "classify", "--f", "x1*x2-1", "--halfspace", "dir:1,1",
            "--image-f", "x1+x2+5",
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "input-error"

    def test_reducible_place_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "trop", "--f", "z*x1+1", "--place", "q:z^2-1")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "invalid-place"

    @pytest.mark.parametrize(
        "content",
        ['{"rank": 2}', '{"rank":2,"constraints":[{"map":[[1,0]]}]}', "[1,2]"],
    )
    def test_malformed_system_exit_code(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        code, out, err = run_cli(capsys, "prevariety", "--system", str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "input-error"

    @pytest.mark.parametrize("command", ["check-halfspace", "classify"])
    def test_f_with_system_is_refused_before_the_file_is_read(self, capsys, tmp_path, command):
        # --f won and the system was dropped without a word; the file is
        # never opened, so a missing one gives the same refusal
        present = tmp_path / "system.json"
        present.write_text(json.dumps(TRIANGLE_SYSTEM))
        for path in (tmp_path / "missing.json", present):
            code, out, err = run_cli(capsys, command, "--f", "x1+x2+1", "--system", str(path),
                                     "--halfspace", "dir:1,1")
            assert code == 2 and out == ""
            error = json.loads(err)["error"]
            assert error["code"] == "input-error"
            assert "--f" in error["message"] and "--system" in error["message"]

    def test_system_without_field_is_parsed_over_one_field(self, capsys, tmp_path):
        # a constraint naming z makes every constraint Q(z): a Q constraint
        # had no valuation at q:z, and check-halfspace exited 2 at inf
        cons = [{"f": "x1 + x2 + 1"}, {"f": "x1 + z*x2 + 1"}]
        outputs = []
        for name, system in [("mixed", {"rank": 2}), ("qz", {"rank": 2, "field": "Q(z)"})]:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**system, "constraints": cons}))
            outputs.append([
                run_cli(capsys, "prevariety", "--system", str(path), "--place", "q:z"),
                run_cli(capsys, "check-halfspace", "--system", str(path), "--halfspace", "dir:1,1"),
            ])
        assert all(code == 0 for code, _, _ in outputs[0])
        assert outputs[0] == outputs[1]

    def test_system_corner_loci_bound_exits_2_in_bounded_time(self, tmp_path):
        # f_50 as a one-constraint system ran check-halfspace for seconds
        # before its loci were charged together, as adelic --f charges them
        path = tmp_path / "f50.json"
        path.write_text(json.dumps({"rank": 2, "field": "Q", "constraints": [{"f": primes_poly(50)}]}))
        start = time.monotonic()
        done = _child(
            "check-halfspace", "--system", str(path), "--halfspace", "dir:1,1",
            "--grid", "1", "--trials", "1",
        )
        assert time.monotonic() - start < 5
        assert done.returncode == 2 and done.stdout == ""
        assert json.loads(done.stderr)["error"]["code"] == "corner-locus-too-large"

    def test_monomial_slice_phase_is_skipped(self, capsys):
        # the slice at phase 0 degenerates to a monomial, other phases do not
        code, out, _ = run_cli(
            capsys, "check-halfspace", "--f", "x1^-2*x2 - 1 + x2^2", "--halfspace", "dir:-1,0"
        )
        assert code == 0
        verdicts = [a["verdict"] for a in json.loads(out)["report"]["archimedean"]]
        assert "meets" in verdicts

    @pytest.mark.parametrize("direction", ["dir:-1,-2", "dir:1,1"])
    def test_common_monomial_factor(self, capsys, direction):
        # x2^500 * (x1 - x2 + x1^2) has the amoeba of x1 - x2 + x1^2; its
        # term moduli overflow along dir:-1,-2 and underflow along dir:1,1
        def verdicts(f):
            code, out, _ = run_cli(capsys, "check-halfspace", "--f", f, "--halfspace", direction)
            assert code == 0
            return [(a["verdict"], a["certificate"]["kind"], "witness" in a["certificate"])
                    for a in json.loads(out)["report"]["archimedean"]]

        assert verdicts("x1*x2^500 - x2^501 + x1^2*x2^500") == verdicts("x1 - x2 + x1^2")

    def test_exponent_spread_exit_code(self, capsys, monkeypatch):
        # a broken guard fails on the stub (exit 3) instead of allocating
        def no_slice(*args):
            raise AssertionError("slice built past the spread guard")

        monkeypatch.setattr(archimedean, "_slice_rows", no_slice)
        code, out, err = run_cli(
            capsys, "check-halfspace", "--f", "x1^99999999 + x1 + x2 + 1",
            "--halfspace", "dir:1,1", "--grid", "2", "--trials", "1",
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "exponent-spread-too-large"

    def test_byte_identical_reruns(self, capsys):
        argv = [
            "check-halfspace",
            "--f",
            "x1*x2-2*x1-2*x2+1",
            "--halfspace",
            "dir:1,1",
        ]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_bytes_come_from_the_input_alone(self, capsys, monkeypatch):
        # two calls in this process and one in a fresh one agree on a
        # rank-3 input that reaches the dyadic phases past the fourth roots,
        # and an AMOEBA_SEED environment variable is not read
        monkeypatch.setenv("AMOEBA_SEED", "123")
        code1, first, _ = run_cli(capsys, *EKL_RANK3)
        code2, second, _ = run_cli(capsys, *EKL_RANK3)
        fresh = _child(*EKL_RANK3)
        assert code1 == code2 == fresh.returncode == 0
        assert first == second == fresh.stdout

    @pytest.mark.parametrize("command", ["check-halfspace", "classify", "ekl-check"])
    def test_seed_is_no_option(self, capsys, command):
        # the sampler's phases are fixed, so there is no seed to give
        argv = [command, "--f", "x1+x2+1", "--trials", "1", "--seed", "0"]
        if command != "ekl-check":
            argv += ["--halfspace", "dir:1,1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["check-halfspace", "classify", "ekl-check"])
    def test_tolerance_is_no_option(self, capsys, command):
        # a loose tolerance let a point off the amoeba print as a witness
        argv = [command, "--f", "(1+x1)*(1+x2)", "--trials", "1", "--tol", "0.9"]
        if command != "ekl-check":
            argv += ["--halfspace", "dir:1,1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and capsys.readouterr().out == ""


# check-halfspace bytes of this rank-3 input differ between --trials 6 and
# the default 200
RANK3_F = (
    "(-16/7)*x1^-3*x2*x3^-2 + (-39/29)*x1^-1*x3 + (-6/5)*x1*x2^-1*x3^2"
    " + (13/14)*x1^2*x2^3*x3^-2 + (13/4)*x1^3"
)
RANK3_CHECK = ["check-halfspace", "--f", RANK3_F, "--halfspace", "dir:1,1,-1", "--grid", "4"]
# ekl-check bytes of this input change from --trials 4 to 5: the fifth
# phase tuple, (pi/4,), is the first past the fourth roots of unity
EKL_RANK3 = ["ekl-check", "--f", "x1^2*x2*x3^2 + 7*x1^-1*x3 - x1*x2 - 3*x1^2*x2^-2*x3 - 3*x3^-1"]
# term exponents -<u, v> past 2**4096 at the first grid point and scan cell
HUGE_POINTS = [
    ["check-halfspace", "--f", "x1+x2+x3+1", "--halfspace", f"dir:1{'0' * 4000},1,-1{'0' * 4000}"],
    ["plot", "--f", "x1+x2+1", "--arch-scan", "--radius", "1e4000", "--grid-n", "3", "--out", "{out}"],
]


def _child(*argv, timeout=60):
    src = os.path.dirname(os.path.dirname(amoebas.__file__))
    env = {k: v for k, v in os.environ.items() if k != "AMOEBA_SEED"}
    return subprocess.run(
        [sys.executable, "-m", "amoebas.cli", *argv],
        capture_output=True, text=True, timeout=timeout,
        env={**env, "PYTHONPATH": src},
    )


def test_cached_parser_carries_no_state(capsys):
    # the parser is built once per process: a --trials given to one call must
    # not become the default of the next
    code1, six, _ = run_cli(capsys, *RANK3_CHECK, "--trials", "6")
    code2, default, _ = run_cli(capsys, *RANK3_CHECK)
    fresh = _child(*RANK3_CHECK)
    assert code1 == code2 == fresh.returncode == 0
    assert default == fresh.stdout
    assert six != default


@pytest.mark.parametrize("argv", HUGE_POINTS, ids=["check-halfspace", "plot"])
def test_huge_archimedean_points_exit_2_in_bounded_time(tmp_path, argv):
    # in a child process, so that an enclosure of exp(10**4000) fails by timeout
    out = tmp_path / "scan.svg"
    done = _child(*[a.format(out=out) for a in argv], timeout=10)
    assert done.returncode == 2 and done.stdout == "" and not out.exists()
    assert json.loads(done.stderr)["error"]["code"] == "point-too-large"


# plot values whose decimal exponent would build a 33-million-bit integer
HUGE_EXPONENTS = [
    (["--arch-scan", "--radius", "1e10000000", "--grid-n", "3"], "point-too-large"),
    (["--arch-scan", "--radius", "1e-10000000", "--grid-n", "3"], "point-too-large"),
    (["--arch-scan", "--center", "0,1E+10_000_000", "--grid-n", "3"], "point-too-large"),
    (["--extent", "1e10000000"], "input-error"),
    (["--extent", "1e-10000000"], "input-error"),
]


@pytest.mark.parametrize(
    "args, code", HUGE_EXPONENTS, ids=["radius", "tiny-radius", "center", "extent", "tiny-extent"]
)
def test_huge_plot_exponents_exit_2_in_bounded_time(tmp_path, args, code):
    # in a child process, so that building 10**10000000 fails by timeout
    out = tmp_path / "plot.svg"
    done = _child("plot", "--f", "x1+x2+1", *args, "--out", str(out), timeout=10)
    assert done.returncode == 2 and done.stdout == "" and not out.exists()
    assert json.loads(done.stderr)["error"]["code"] == code


def test_plot_exponents_at_the_bound_accepted(capsys, tmp_path):
    out = str(tmp_path / "plot.svg")
    scan = ["plot", "--f", "x1+x2+1", "--arch-scan", "--grid-n", "2", "--out", out]
    assert run_cli(capsys, *scan, "--radius", f"1e-{cli.MAX_DECIMAL_EXPONENT}")[0] == 0
    code, _, err = run_cli(capsys, *scan, "--radius", f"1e-{cli.MAX_DECIMAL_EXPONENT + 1}")
    assert code == 2 and "decimal exponent" in json.loads(err)["error"]["message"]
    # past 2**4096 on the term exponents, refused by the scan itself
    code, _, err = run_cli(capsys, *scan, "--radius", f"1e{cli.MAX_DECIMAL_EXPONENT}")
    assert code == 2 and json.loads(err)["error"]["code"] == "point-too-large"
    assert "decimal exponent" not in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "f",
    ["(z^2+z+3)^32*x1+(z-5)^64", "((z^2+z+3)^64)^2*x1+((z-5)^64)^2"],
    ids=["degree-64", "degree-256"],
)
def test_large_qz_coefficients_in_bounded_time(f):
    # in a child process, so that a gcd blow-up fails by timeout
    done = _child("adelic", "--f", f)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["command"] == "adelic"


def test_hard_semiprime_coefficient_exits_2_in_bounded_time():
    # two 20-digit primes: a full sympy factorization takes about 35 s; the
    # bounded pass leaves the 40-digit product whole and it is refused
    f = f"{90799494873517555709 * 11218320424174490777}*x1 + 1"
    start = time.monotonic()
    done = _child("adelic", "--f", f, timeout=30)
    assert time.monotonic() - start < 5
    assert done.returncode == 2 and done.stdout == ""
    assert json.loads(done.stderr)["error"]["code"] == "factorization-too-large"


# 4215 digits, under the parser's 4300-digit limit: 3 times a 13994-bit
# cofactor with no prime factor below 10^5, which sympy's bounded rho and
# p-1 pass took about 5 minutes to give up on
HUGE_COEFFICIENT = 3 * (random.Random(14000).getrandbits(14000) | 1 << 13999 | 1)


@pytest.mark.parametrize(
    "argv",
    [["product-formula", "--a", str(HUGE_COEFFICIENT)], ["adelic", "--f", f"{HUGE_COEFFICIENT}*x1 + 1"]],
    ids=["product-formula", "adelic"],
)
def test_huge_coefficient_is_refused_from_its_size(argv):
    done = _child(*argv, timeout=10)
    assert done.returncode == 2 and done.stdout == ""
    assert json.loads(done.stderr)["error"]["code"] == "factorization-too-large"


def test_huge_place_is_refused_from_its_size():
    # the 13994-bit cofactor above as a place: a primality test on it took
    # 6.9 s before the bound
    done = _child("trop", "--f", "x1 + 1", "--place", f"p:{HUGE_COEFFICIENT // 3}", timeout=10)
    assert done.returncode == 2 and done.stdout == ""
    error = json.loads(done.stderr)["error"]
    assert error["code"] == "invalid-place" and "at most 4096 bits" in error["message"]


def test_each_text_is_tokenized_once(capsys, tmp_path, monkeypatch):
    # an omitted rank and field are read off the parser's own tokens, and a
    # system's shared field off its texts' characters
    passes = []
    tokenize = parsing._tokenize
    monkeypatch.setattr(parsing, "_tokenize", lambda text: passes.append(text) or tokenize(text))
    laurent.parse_poly("z*x1 + x2^2 - 3")
    assert len(passes) == 1
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"rank": 3, "constraints": SYSTEM_QZ["constraints"]}))
    passes.clear()
    assert cli.load_system(str(path)).field == "Q(z)"
    assert len(passes) == 3
    passes.clear()
    assert run_cli(capsys, "product-formula", "--a", "(z^2-1)/z")[0] == 0
    assert len(passes) == 1


@pytest.mark.parametrize("f", ["0^99+x1+1", "(x1-x1)^99+x1+1"])
def test_zero_base_power(capsys, f):
    code, out, _ = run_cli(capsys, "trop", "--f", f)
    assert code == 0
    assert out == run_cli(capsys, "trop", "--f", "x1+1")[1]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


EMPTY = _digest(b"")

# argv -> exit code and the first 16 hex digits of the sha256 of stdout, of
# stderr and of the file written to {out} (None: no file), with every
# temporary path replaced by TMP.  The inputs are over Q(z) or decided by
# exact certificates, except the last seven, which pin the seeded sampler's
# witness floats along an archimedean grid scan, a trinomial system scanned
# inside and outside its triangle, the float product-formula residual, a
# rank-3 point where 20 sweeps of the sampler find no witness, a rank-2
# witness that the sampler's bisection finds after its sweep, witnesses
# found past a slice that cancels to a monomial at the swept phase 0, and a
# scan whose points from t = 15/2 on have the coordinate modulus
# exp(-750) == 0.0, so no float witness and evidence-only verdicts.  The
# three long-grid scans of 201 points pin what the tail of a ray scan
# certifies without another enclosure: x1 + x2 + 1 along (1, 1), a triangle
# meets with a sampler witness and then 200 triangle tails; 2*x1^3 - 5*x1*x2
# + x2^2 + 40 along (-1, -1), where the dominating constant does not
# minimize <u, d> and a witness point comes before the tail of x1^3; and the
# rank-4 system along (-1, 0, 0, 1), where constraint 1 certifies four
# points before constraint 0 takes over and one point is evidence-only.
PINS = [
    ("trop-qz", ["trop", "--f", QZ_CURVE, "--place", "q:z"],
     0, "6ba16dab628a296a", EMPTY, None),
    ("trop-out", ["trop", "--f", Q_CURVE, "--place", "p:2", "--out", "{out}"],
     0, EMPTY, EMPTY, "3f7f7953342a685c"),
    ("adelic-q", ["adelic", "--f", Q_CURVE],
     0, "60b7a988fed3a2ff", EMPTY, None),
    ("adelic-qz", ["adelic", "--f", QZ_CURVE],
     0, "c97a8f87b0077d27", EMPTY, None),
    ("prevariety-generic", ["prevariety", "--system", "{system}"],
     0, "238d32107f0b6928", EMPTY, None),
    ("prevariety-qz", ["prevariety", "--system", "{system}", "--place", "q:z"],
     0, "aa1311a984f33e7e", EMPTY, None),
    ("prevariety-rank4-generic", ["prevariety", "--system", "{rank4}", "--place", "generic"],
     0, "36b13659db49047c", EMPTY, None),
    ("prevariety-rank4-p3", ["prevariety", "--system", "{rank4}", "--place", "p:3"],
     0, "b67a5b393534c1a3", EMPTY, None),
    ("check-f-qz", ["check-halfspace", "--f", QZ_CURVE, "--halfspace", "dir:1,1"],
     0, "32764e474ebe0153", EMPTY, None),
    # a rank-3 halfspace with a boundary generator whose LP optimum is a
    # segment at the place inf: the witness is the vertex the (x, lambda, t)
    # LP picks, (0, -1/8, -1/4)
    ("check-f-degenerate-face", ["check-halfspace", "--f",
      "((-2)*(z^2+1))*x1^-1*x2^-2*x3^-1 + ((-2)*(z-1))*x1^-1*x2^2*x3 + ((-1)*(z))*x1*x2^-1*x3^-2"
      " + ((-3)*(z-2))*x1^2*x2^-2", "--field", "Q(z)", "--halfspace", "dir:-1,-1,-2 bnd:1,0,0"],
     0, "100a04cc6b1b1101", EMPTY, None),
    # the witness routes of halfspace_meets_complex: at p:2 the maximum of t
    # is finite at one point of the line; at generic t is unbounded and
    # capped at t = 1, while at p:2 t is constant on the meeting cell, so
    # its witness is the LP's vertex; a cell met only past t = 1 gives the
    # uncapped LP's point (2, -2) at p:2
    ("check-f-line-finite", ["check-halfspace", "--f", "x1 + x2 + 2", "--halfspace", "dir:1,1"],
     0, "328a2a88227ddd2b", EMPTY, None),
    ("check-f-line-capped-and-constant-t", ["check-halfspace", "--f", "x1 + x2 + 2",
      "--halfspace", "dir:0,1 bnd:1,0"],
     0, "a4027eb13fdb8ef1", EMPTY, None),
    ("check-f-met-past-t-one", ["check-halfspace", "--f", "x1*x2 + 2*x1 + 4*x2 + 1",
      "--halfspace", "dir:1,0 bnd:0,1"],
     0, "937639c3306922c4", EMPTY, None),
    # places decided by one complement component, with no cell scan: the
    # generic place of x1*x2 + 3 lies in the region of the constant, through
    # a boundary orthogonal to the exponent difference, while p:3 meets;
    # the region of x2 holds the ray at q:z and that of z*x1 at inf, while
    # the generic place meets
    ("check-f-component-boundary", ["check-halfspace", "--f", "x1*x2 + 3",
      "--halfspace", "dir:1,1 bnd:1,-1"],
     0, "5e9e5227019caba9", EMPTY, None),
    ("check-f-component-qz", ["check-halfspace", "--f", "z*x1 + x2 + 1", "--halfspace", "dir:-1,-1"],
     0, "ce5449318a6f1b7c", EMPTY, None),
    ("check-f-binomial",["check-halfspace", "--f", "x1*x2-1", "--halfspace", "dir:1,1"],
     0, "0f2eef1565a1c63e", EMPTY, None),
    ("check-f-explicit-defaults", ["check-halfspace", "--f", "x1*x2-1", "--halfspace", "dir:1,1",
      "--grid", "20", "--trials", "200"],
     0, "0f2eef1565a1c63e", EMPTY, None),
    # (1/2, 1/2) is off the amoeba {v1 = 0} u {v2 = 0}, and no exact test
    # decides it: the sampler finds no witness within its fixed tolerance
    ("check-f-evidence-only", ["check-halfspace", "--f", "(1+x1)*(1+x2)", "--halfspace", "dir:1,1",
      "--grid", "1", "--trials", "1"],
     0, "f215e62ae946e514", EMPTY, None),
    ("check-f-grid", ["check-halfspace", "--f", "x1*x2-1", "--halfspace", "dir:1,1", "--grid", "3"],
     0, "3498f70b17b9969d", EMPTY, None),
    ("check-system", ["check-halfspace", "--system", "{system}", "--halfspace", BND],
     0, "9704be8542628c3f", EMPTY, None),
    ("check-system-out", ["check-halfspace", "--system", "{system}", "--halfspace", BND,
      "--out", "{out}"],
     0, EMPTY, EMPTY, "9704be8542628c3f"),
    ("classify-case1", ["classify", "--system", "{system}", "--halfspace", BND,
      "--declare-codim-gt-1"],
     0, "282db151c8bf2705", EMPTY, None),
    ("classify-case2", ["classify", "--system", "{system}", "--halfspace", BND,
      "--image-f", "x1 - x2 - 1", "--field", "Q(z)"],
     0, "d1b3ba5f9917cb05", EMPTY, None),
    ("classify-case3", ["classify", "--f", "x1*x2-1", "--halfspace", "dir:1,1"],
     0, "1dad6ec1bf291b39", EMPTY, None),
    ("classify-meets", ["classify", "--f", QZ_CURVE, "--halfspace", "dir:1,1"],
     0, "60950992947743d7", EMPTY, None),
    ("ekl-check-qz", ["ekl-check", "--f", QZ_CURVE],
     0, "d33272a2b3485a41", EMPTY, None),
    # no disjoint half-line is found, and that is no violation: x1 + z has no
    # vertex of least coefficient valuation at both q:z and inf
    ("ekl-check-none-found", ["ekl-check", "--f", "x1+z"],
     0, "d33272a2b3485a41", EMPTY, None),
    # over Q the grid certifies points, not the open ray, so no report there
    # flags a violation: x1 - 3 and x1 - 2 meet their rays between grid
    # points, x1^2 - 10*x1 + 1 at +-2.2924..., and x1^2 + x1 + 1 is a
    # torsion coset that is no binomial
    ("ekl-check-binomial", ["ekl-check", "--f", "x1-3"],
     0, "8ab8384dac334e35", EMPTY, None),
    ("ekl-check-cyclotomic", ["ekl-check", "--f", "x1^2+x1+1"],
     0, "7819edfb59138477", EMPTY, None),
    ("ekl-check-case2", ["ekl-check", "--f", "x1+x2+1", "--field", "Q(z)"],
     0, "7878ca4c009f4335", EMPTY, None),
    ("classify-between-grid-points", ["classify", "--f", "x1-2", "--halfspace", "dir:-1"],
     0, "36c115154e21b306", EMPTY, None),
    ("classify-reciprocal", ["classify", "--f", "x1^2-10*x1+1", "--halfspace", "dir:1"],
     0, "f34876299c92620b", EMPTY, None),
    ("product-formula-qz", ["product-formula", "--a", "(z^2-1)/z"],
     0, "413ba24546a58b21", EMPTY, None),
    ("product-formula-out", ["product-formula", "--a", "z^3-z", "--out", "{out}"],
     0, EMPTY, EMPTY, "5e4f2636308b1fe3"),
    ("adelic-qz-degree-5", ["adelic", "--f",
      "(2/3)*x1*x2 + (z^5-3*z^2+1/2)*x1 + (4*z^5+z)/(6*z^3-9)*x2 - 5/7"],
     0, "4b50c05a9eb9f3f8", EMPTY, None),
    ("product-formula-qz-quotient", ["product-formula", "--a", "(6*z^5-3/2*z)/(4*z^3+2*z^2-8)"],
     0, "125ff6b8f71e1164", EMPTY, None),
    ("trop-qz-nonmonic-place", ["trop", "--f", "(2*z-1)^2*x1 + (4*z^2-1)/z*x2 + 1/(2*z-1)",
      "--place", "q:2*z-1"],
     0, "1300c8fc819b29e5", EMPTY, None),
    ("plot-complex", ["plot", "--f", "x1+x2+1", "--place", "generic", "--out", "{out}"],
     0, "97bc311e8d9451ac", EMPTY, "2a9e550fe4670b2b"),
    ("plot-complex-p2", ["plot", "--f", Q_CURVE, "--place", "p:2", "--extent", "6",
      "--out", "{out}"],
     0, "97bc311e8d9451ac", EMPTY, "34de5d04e789adc0"),
    ("error-syntax", ["trop", "--f", "x1 + + * x2"],
     2, EMPTY, "338667afe90db697", None),
    ("error-monomial", ["trop", "--f", "7*x1"],
     2, EMPTY, "ce734a95f9b6a049", None),
    ("error-place", ["trop", "--f", "x1+1", "--place", "p:6"],
     2, EMPTY, "be348f2c184ba41a", None),
    ("error-missing-file", ["prevariety", "--system", "{missing}"],
     2, EMPTY, "bbf8fa68dad9651a", None),
    ("error-no-source", ["check-halfspace", "--halfspace", "dir:1,1"],
     2, EMPTY, "13066de5219d1799", None),
    ("error-halfspace-chunk", ["check-halfspace", "--f", "x1+x2+1", "--halfspace", "dir:1,1 up:1"],
     2, EMPTY, "953639d38d45fda9", None),
    ("error-halfspace-second-dir", ["check-halfspace", "--f", "x1 + x2 + 2",
      "--halfspace", "dir:1,1 dir:1,0"],
     2, EMPTY, "a66b63c820e50a83", None),
    ("error-halfspace-rank", ["check-halfspace", "--f", "x1+x2+1", "--halfspace", "dir:1,1,1"],
     2, EMPTY, "b58c73ee1ec9bcf2", None),
    ("error-dependent-direction", ["classify", "--f", "x1+x2+1", "--halfspace", "dir:1,1 bnd:2,2"],
     2, EMPTY, "33de3723c984cc14", None),
    ("error-classify-missing-image", ["classify", "--system", "{system}", "--halfspace", BND],
     2, EMPTY, "e893a3adc24e747e", None),
    ("error-image-and-declaration", ["classify", "--system", "{system}", "--halfspace", BND,
      "--image-f", "x1-x2-1", "--declare-codim-gt-1"],
     2, EMPTY, "db2cb488e8020166", None),
    ("error-plot-no-out", ["plot", "--f", "x1+x2+1"],
     2, EMPTY, "cc88b92e684220ab", None),
    ("error-rank", ["trop", "--f", "x1+x2", "--rank", "1"],
     2, EMPTY, "1a8a858bcc747fde", None),
    ("error-system-schema", ["prevariety", "--system", "{schema}"],
     2, EMPTY, "a00303824b90f7ee", None),
    ("error-system-json", ["check-halfspace", "--system", "{notjson}",
      "--halfspace", "dir:1,1"],
     2, EMPTY, "05118caef5ff0f94", None),
    # two rays of x1 + x2 + 16 clip to the viewport's corner, one point each;
    # the line v1 = 10 of x1 - 1024 lies outside it, so only the axes show
    ("plot-point-clips", ["plot", "--f", "x1+x2+16", "--place", "p:2", "--extent", "4",
      "--out", "{out}"],
     0, "97bc311e8d9451ac", EMPTY, "604fe4469c7e5ded"),
    ("plot-outside-viewport", ["plot", "--f", "x1 - 1024", "--rank", "2", "--place", "p:2",
      "--out", "{out}"],
     0, "97bc311e8d9451ac", EMPTY, "9b7a16dffb81ec17"),
    ("trop-parenthesized-exponent", ["trop", "--f", "x1^(-2)+1"],
     0, "ae31357243bc2517", EMPTY, None),
    ("error-place-not-a-prime", ["trop", "--f", "x1+1", "--place", "p:abc"],
     2, EMPTY, "33ad6e342cf20cda", None),
    ("error-place-not-a-polynomial", ["trop", "--f", "x1+1", "--place", "q:1/z"],
     2, EMPTY, "9f2f83f8492dbe7d", None),
    ("error-divide-by-a-sum", ["trop", "--f", "1/(x1+1)"],
     2, EMPTY, "7f536094ee92d5df", None),
    ("error-z-over-q", ["trop", "--f", "z*x1+1", "--field", "Q"],
     2, EMPTY, "0ba80737e57559b2", None),
    ("error-product-formula-zero", ["product-formula", "--a", "0"],
     2, EMPTY, "73aebf3a0eb3613b", None),
    ("error-product-formula-zero-qz", ["product-formula", "--a", "z-z"],
     2, EMPTY, "9c3d46db3f360894", None),
    ("error-adelic-monomial", ["adelic", "--f", "x1"],
     2, EMPTY, "ce734a95f9b6a049", None),
    ("error-monomial-image", ["classify", "--system", "{system}", "--halfspace", BND,
      "--image-f", "x1"],
     2, EMPTY, "86d412ebecd7d080", None),
    ("error-halfspace-no-dir", ["check-halfspace", "--f", "x1+x2+1", "--halfspace", "bnd:1,0"],
     2, EMPTY, "9cf602bed8288a70", None),
    ("error-plot-rank-3", ["plot", "--f", "x1+x2+x3+1", "--out", "{out}"],
     2, EMPTY, "765b83e1ce497b58", None),
    ("error-scan-rank-3", ["plot", "--f", "x1+x2+x3+1", "--arch-scan", "--out", "{out}"],
     2, EMPTY, "82a4b1375d3928c1", None),
    # the image of a hypersurface has codimension at most one, so a
    # declaration of more is refused before any amoeba is built
    ("error-hypersurface-declaration", ["classify", "--f", "x1*x2-1", "--halfspace", "dir:1,1",
      "--declare-codim-gt-1"],
     2, EMPTY, "2c120eb1feeb445e", None),
    ("error-hypersurface-boundary-declaration", ["classify", "--f", "x1*x2-1",
      "--halfspace", "dir:1,1 bnd:1,-1", "--declare-codim-gt-1"],
     2, EMPTY, "2c120eb1feeb445e", None),
    ("error-hypersurface-boundary-image", ["classify", "--f", "x1*x2-1",
      "--halfspace", "dir:1,1 bnd:1,-1"],
     2, EMPTY, "bf46aa8723c148fe", None),
    ("ekl-check-q", ["ekl-check", "--f", Q_CURVE],
     0, "114270e857650259", EMPTY, None),
    ("check-system-triangle", ["check-halfspace", "--system", "{triangle}", "--halfspace", "dir:1,1"],
     0, "1b40a0af6e01d50d", EMPTY, None),
    ("product-formula-q", ["product-formula", "--a=-360/7007"],
     0, "f12b87d785047db9", EMPTY, None),
    ("check-f-sampler-sweeps", ["check-halfspace", "--f",
      "-3*x1^-2 + 2*x1^-1*x3^-2 + 5*x1^-1*x3^-1 + 2*x1", "--rank", "3",
      "--halfspace", "dir:1,-4,0", "--grid", "1", "--trials", "20"],
     0, "57803922d64c2eb7", EMPTY, None),
    ("check-f-sampler-bisection", ["check-halfspace", "--f", "x1^2 + x2^2 + x1*x2 - 3",
      "--halfspace", "dir:1,-1", "--grid", "3"],
     0, "4bb7087c5e76fbac", EMPTY, None),
    ("check-f-sampler-vanishing-slice", ["check-halfspace", "--f",
      "x1^2*x2 - x1^2 + 3*x1 + x2 - 1", "--halfspace", "dir:1,0"],
     0, "34bbe7d4db8f2f57", EMPTY, None),
    ("check-f-sampler-zero-modulus", ["check-halfspace", "--f", "x1 + 1", "--rank", "2",
      "--halfspace", "dir:0,100", "--trials", "1"],
     0, "ef072149022e64d0", EMPTY, None),
    ("check-f-long-grid-triangle", ["check-halfspace", "--f", "x1 + x2 + 1",
      "--halfspace", "dir:1,1", "--grid", "201", "--trials", "99"],
     0, "a767e4003efe5d5a", EMPTY, None),
    ("check-f-long-grid-lopsided", ["check-halfspace", "--f", "2*x1^3 - 5*x1*x2 + x2^2 + 40",
      "--halfspace", "dir:-1,-1", "--grid", "201", "--trials", "99"],
     0, "16d771537e8fc809", EMPTY, None),
    ("check-system-long-grid-rank4", ["check-halfspace", "--system", "{rank4}",
      "--halfspace", "dir:-1,0,0,1", "--grid", "201", "--trials", "99"],
     0, "539aa5b75034bb13", EMPTY, None),
    ("check-f-rank3-dyadic-phases", [*RANK3_CHECK, "--trials", "6"],
     0, "02e79d8d0af754c5", EMPTY, None),
    ("ekl-check-rank3-dyadic-phases", EKL_RANK3,
     0, "2dedbd1081952733", EMPTY, None),
    ("error-huge-check-point", HUGE_POINTS[0], 2, EMPTY, "10e96d88d58c8bf1", None),
    ("error-huge-scan-point", HUGE_POINTS[1], 2, EMPTY, "10e96d88d58c8bf1", None),
]


@pytest.mark.parametrize(
    "argv, side, case",
    [
        (["ekl-check", "--f", "x1+z"], "none-found", None),
        (["ekl-check", "--f", "x1-3"], "hypothesis", None),
        (["ekl-check", "--f", "x1^2+x1+1"], "hypothesis", None),
        (["ekl-check", "--f", "x1+x2+1", "--field", "Q(z)"], "hypothesis", 2),
        (["classify", "--f", "x1-2", "--halfspace", "dir:-1"], None, None),
        (["classify", "--f", "x1^2-10*x1+1", "--halfspace", "dir:1"], None, None),
    ],
)
def test_no_violation_without_certified_disjointness(capsys, argv, side, case):
    code, out, _ = run_cli(capsys, *argv)
    report = json.loads(out)["report"]
    assert code == 0 and report.get("side") == side and report["conclusion_case"] == case
    assert report.get("violation") is not True


@pytest.mark.parametrize(
    "system, place", [(SYSTEM_QZ, "q:z"), (RANK_4_SYSTEM, "p:3")], ids=["qz", "rank4"]
)
def test_explicit_identity_map_keeps_bytes(capsys, tmp_path, system, place):
    # a constraint without a map skips the pullback of its cells
    rank = system["rank"]
    eye = [[int(i == j) for j in range(rank)] for i in range(rank)]
    mapped = dict(system, constraints=[dict(c, map=eye) for c in system["constraints"]])
    runs = []
    for name, obj in (("plain", system), ("mapped", mapped)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        direction = ",".join(["-1"] + ["0"] * (rank - 2) + ["1"])
        runs.append([
            run_cli(capsys, *argv)
            for argv in (
                ["prevariety", "--system", str(path)],
                ["prevariety", "--system", str(path), "--place", place],
                ["check-halfspace", "--system", str(path), "--halfspace", f"dir:{direction}"],
            )
        ])
    assert runs[0] == runs[1]
    assert all(code == 0 for code, _, _ in runs[0])


@pytest.mark.parametrize(
    "argv, code, out_sha, err_sha, file_sha", [p[1:] for p in PINS], ids=[p[0] for p in PINS]
)
def test_pinned_bytes(capsys, tmp_path, argv, code, out_sha, err_sha, file_sha):
    files = {"system": json.dumps(SYSTEM_QZ), "rank4": json.dumps(RANK_4_SYSTEM), "schema": '{"rank": 2}',
             "notjson": "{", "triangle": json.dumps(TRIANGLE_SYSTEM)}
    paths = {"out": str(tmp_path / "out"), "missing": str(tmp_path / "missing.json")}
    for name, text in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(text)
    got_code, out, err = run_cli(capsys, *[a.format(**paths) for a in argv])
    norm = lambda text: text.replace(str(tmp_path), "TMP").encode()
    written = tmp_path / "out"
    assert (got_code, _digest(norm(out)), _digest(norm(err))) == (code, out_sha, err_sha)
    assert (_digest(written.read_bytes()) if written.exists() else None) == file_sha


_TOO_LARGE = "170d2b3b32f13873"  # stderr of an expansion-too-large refusal
_A, _B = 2**7140 + 1, 2**7140 + 3
_C, _D = 2**7141 + 1, 2**7141 + 3
_N4300, _N4301 = "7" * 4299 + "1", "7" * 4300 + "1"


@pytest.mark.parametrize(
    "place, f, code, out_sha, err_sha",
    [
        # (z/A + 1/B)^2: its monic view has coefficients of 2 * 7141 bits, at
        # the 4300-digit bound (its integer pair has twice as many bits)
        ("inf", f"(z/{_A}+1/{_B})*(z/{_A}+1/{_B})*x1 + 1", 0, "624855812f46bf76", EMPTY),
        ("inf", f"(z/{_C}+1/{_D})*(z/{_C}+1/{_D})*x1 + 1", 2, EMPTY, _TOO_LARGE),
        ("inf", f"x1 + z + 1/{_N4300}", 2, EMPTY, _TOO_LARGE),
        ("inf", f"x1 + (z-1)/(2*z+{_N4300})", 2, EMPTY, _TOO_LARGE),
        ("inf", f"x1 + z + 1/{_N4301}", 2, EMPTY, "f1e884076e607ad9"),
        # z-degree 128 times 128, at the bound, and 128 times 129 past it
        ("q:3*z-2", "((z^63)^2*z+1)/(3*z-2)*((z^64)^2*z-1)*x1 + 1", 0, "cdf99be2425fc86d", EMPTY),
        ("q:3*z-2", "((z^63)^2*z+1)/(3*z-2)*((z^64)^2*z^2-1)*x1 + 1", 2, EMPTY, _TOO_LARGE),
    ],
    ids=["digits-at", "digits-past", "literal-4300-inverse", "literal-4300-denominator",
         "literal-4301", "degree-at", "degree-past"],
)
def test_qz_expansion_limits(capsys, place, f, code, out_sha, err_sha):
    got_code, out, err = run_cli(capsys, "trop", "--place", place, "--f", f)
    assert (got_code, _digest(out.encode()), _digest(err.encode())) == (code, out_sha, err_sha)


def test_import_loads_no_sympy():
    src = os.path.dirname(os.path.dirname(amoebas.__file__))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, amoebas; print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0 and done.stdout == "[]\n", done.stderr


def test_constant_qz_operands_load_no_sympy():
    # z + 1/N combines a constant with z: integer scaling, no dup_cancel
    src = os.path.dirname(os.path.dirname(amoebas.__file__))
    argv = ["trop", "--place", "inf", "--f", "x1 + z + 1/" + "7" * 3999 + "1"]
    code = f"import sys; from amoebas.cli import main; main({argv!r}); sys.exit('sympy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0 and done.stdout.startswith('{"command":"trop"'), done.stderr


class TestRejectedValues:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check-halfspace", "--f", "x1+x2+1", "--halfspace", "dir:1,1", "--grid", "-3"],
            ["check-halfspace", "--f", "x1+x2+1", "--halfspace", "dir:1,1", "--grid", "0"],
            ["check-halfspace", "--f", "x1+x2+1", "--halfspace", "dir:1,1", "--trials", "0"],
            ["classify", "--f", "x1*x2-1", "--halfspace", "dir:1,1", "--trials", "-1"],
            ["plot", "--f", "x1+x2-2", "--arch-scan", "--grid-n", "1", "--out", "{out}"],
            ["plot", "--f", "x1+x2+1", "--extent", "0", "--out", "{out}"],
            # float(extent) overflows or is 0.0; the viewport width overflows;
            # the pixel scale overflows
            ["plot", "--f", "x1+x2+1", "--extent", "1e400", "--out", "{out}"],
            ["plot", "--f", "x1+x2+1", "--extent", "1e-400", "--out", "{out}"],
            ["plot", "--f", "x1+x2+1", "--extent", "1e308", "--out", "{out}"],
            ["plot", "--f", "x1+x2+1", "--extent", "1e-310", "--out", "{out}"],
        ],
    )
    def test_sampling_values_exit_2(self, capsys, tmp_path, argv):
        out_path = tmp_path / "out"
        code, out, err = run_cli(capsys, *[a.format(out=out_path) for a in argv])
        assert code == 2 and out == "" and not out_path.exists()
        assert json.loads(err)["error"]["code"] == "input-error"

    # past the caps on sampler trials per scanned half-line and on scan
    # points per side: refused before any polynomial is parsed or grid built
    @pytest.mark.parametrize(
        "argv",
        [
            ["check-halfspace", "--f", "z*x1+x2+1", "--halfspace", "dir:1,1", "--grid", "100000000"],
            ["check-halfspace", "--f", "z*x1+x2+1", "--halfspace", "dir:1,1", "--trials", "100000000"],
            ["check-halfspace", "--f", "x1+x2+1", "--halfspace", "dir:1,1", "--grid", "101"],
            ["check-halfspace", "--f", "x1+x2+1", "--halfspace", "dir:1,1", "--grid", "1",
             "--trials", "20001"],
            ["classify", "--f", "x1*x2-1", "--halfspace", "dir:1,1", "--trials", "1001"],
            ["ekl-check", "--f", Q_CURVE, "--trials", "1001"],
            ["plot", "--f", "x1+x2-2", "--arch-scan", "--grid-n", "100000", "--out", "{out}"],
            ["plot", "--f", "x1+x2-2", "--arch-scan", "--grid-n", "202", "--out", "{out}"],
        ],
    )
    def test_over_bound_exits_2_at_once(self, capsys, tmp_path, argv):
        out_path = tmp_path / "out"
        start = time.monotonic()
        code, out, err = run_cli(capsys, *[a.format(out=out_path) for a in argv])
        assert time.monotonic() - start < 1
        assert code == 2 and out == "" and not out_path.exists()
        assert json.loads(err)["error"]["code"] == "input-error"

    def test_at_the_bounds_accepted(self, capsys, tmp_path, monkeypatch):
        # Q(z) has no archimedean place, so 100 grid points of 200 trials
        # each cost only the grid
        code, _, _ = run_cli(
            capsys, "check-halfspace", "--f", "z*x1+x2+1", "--halfspace", "dir:1,1", "--grid", "100"
        )
        assert code == 0
        # a full 201-point side takes seconds; the comparison is the same at 3
        monkeypatch.setattr(plot, "MAX_GRID_N", 3)
        argv = ["plot", "--f", "x1+x2-2", "--arch-scan", "--out", str(tmp_path / "scan.svg")]
        assert run_cli(capsys, *argv, "--grid-n", "3")[0] == 0
        assert run_cli(capsys, *argv, "--grid-n", "4")[0] == 2

    def test_default_grid_meets(self, capsys):
        # the grid point (1/2, 1/2) has a witness, so an empty grid must not
        # read "disjoint"
        code, out, _ = run_cli(
            capsys, "check-halfspace", "--f", "x1+x2+1", "--halfspace", "dir:1,1"
        )
        assert code == 0 and json.loads(out)["verdict"] == "meets"

    @pytest.mark.parametrize(
        "system, error",
        [
            ({"rank": 0, "constraints": [{"f": "x1+1"}]}, "input-error"),
            ({"rank": 2, "field": "R", "constraints": [{"f": "x1+1"}]}, "input-error"),
            ({"rank": 2, "constraints": [{"f": "x1+1", "map": [[1, "a"]]}]}, "input-error"),
            ({"rank": 2, "constraints": [{"f": "x1+1", "rank": 0}]}, "input-error"),
            # a rank-2 constraint with no map in a rank-3 system; a 2 x 2 map
            ({"rank": 3, "constraints": [{"f": "x1+x2+1", "rank": 2}]}, "dimension-mismatch"),
            ({"rank": 3, "constraints": [{"f": "x1+x2+1", "map": [[1, 0], [0, 1]]}]},
             "dimension-mismatch"),
        ],
        ids=["rank-0", "field-R", "map-entry", "constraint-rank-0", "no-map", "map-shape"],
    )
    def test_malformed_system_exits_2(self, capsys, tmp_path, system, error):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system))
        code, out, err = run_cli(capsys, "prevariety", "--system", str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == error

    @pytest.mark.parametrize(
        "system, key",
        [
            ({"rank": 2, "constraints": [{"f": "x1 + x2 + 1", "Map": [[1, 1], [0, 1]]}]}, "Map"),
            ({"rank": 2, "feild": "Q(z)", "constraints": [{"f": "x1 + x2 + 1"}]}, "feild"),
        ],
        ids=["constraint-key", "system-key"],
    )
    def test_unknown_system_key_is_refused(self, capsys, tmp_path, system, key):
        # a misspelt key was ignored: "Map" pulled back along the identity
        # and "feild" ran over Q, both with exit 0
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system))
        code, out, err = run_cli(capsys, "prevariety", "--system", str(path))
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "input-error" and repr(key) in error["message"]

    def test_boundary_generator_length(self, capsys):
        code, out, err = run_cli(
            capsys, "check-halfspace", "--f", "x1+x2+1", "--halfspace", "dir:1,1 bnd:1,0,0"
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "dimension-mismatch"


def test_image_over_source_field(capsys, system_file):
    argv = ["classify", "--system", system_file, "--halfspace", BND, "--image-f", "x1 - x2 - 1"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["report"]["conclusion_case"] == 2
    assert run_cli(capsys, *argv, "--field", "Q(z)") == (0, out, "")


@pytest.mark.parametrize(
    "exc", [AssertionError("broken"), InternalInvariantError("broken")], ids=repr
)
def test_internal_failures_exit_3(capsys, monkeypatch, exc):
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "trop_hypersurface", fail)
    code, out, err = run_cli(capsys, "trop", "--f", "x1+x2+1")
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": {"code": "internal-invariant", "message": "broken"}}


POLY_TEXTS = [
    "x1+x2+1", Q_CURVE, QZ_CURVE, "x1*x2-1", "x1 + 2*x1^-1 + 3", "2*x1 + 4",
    "7*x1", "x1 + + x2", "", "x1-x1", "x1^-1*x2 + (1/2)*x2^2 - 3", "(x1+1)^2 - x2",
    "0^99+x1+1",
]
PLACE_TEXTS = ["generic", "p:2", "p:3", "p:6", "q:z", "q:z-1", "inf", "arch", "", "p:"]
HALFSPACE_TEXTS = ["dir:1,1", "dir:1,-1", "dir:1,1,0 bnd:0,0,1", "dir:1", "bnd:1,0", "dir:a"]
SCALAR_TEXTS = ["12", "-7/15", "0", "(z^2-1)/z", "z", "1/0", "x1"]
POLY_FLAGS = ("--f", "--rank", "--field")
QUERY_FLAGS = ("--system", "--halfspace", "--trials")
OWN_FLAGS = {
    "trop": POLY_FLAGS + ("--place",),
    "adelic": POLY_FLAGS,
    "prevariety": ("--system", "--place"),
    "check-halfspace": POLY_FLAGS + QUERY_FLAGS + ("--grid",),
    "classify": POLY_FLAGS + QUERY_FLAGS + ("--image-f", "--declare-codim-gt-1"),
    "ekl-check": POLY_FLAGS + ("--trials",),
    "product-formula": ("--a", "--field"),
    "plot": POLY_FLAGS + ("--place", "--extent", "--arch-scan", "--grid-n"),
}
FLAG_VALUES = {
    "--f": st.sampled_from(POLY_TEXTS) | st.text("x12z+-*/^() ", max_size=12),
    "--rank": st.sampled_from(["1", "2", "3", "0", "-1", "two"]),
    "--field": st.sampled_from(["Q", "Q(z)", "R"]),
    "--place": st.sampled_from(PLACE_TEXTS),
    "--halfspace": st.sampled_from(HALFSPACE_TEXTS),
    "--a": st.sampled_from(SCALAR_TEXTS),
    "--image-f": st.sampled_from(POLY_TEXTS),
    "--trials": st.sampled_from(["1", "3", "0"]),
    "--grid": st.sampled_from(["1", "2", "0"]),
    "--grid-n": st.sampled_from(["3", "1"]),
    "--tol": st.sampled_from(["1e-9", "0.9"]),  # no command takes it
    "--seed": st.sampled_from(["0", "5"]),  # no command takes it
    "--extent": st.sampled_from(["2", "0", "1/2"]),
    "--system": st.just("no-such-system.json"),
    "--declare-codim-gt-1": st.none(),
    "--arch-scan": st.none(),
}


@st.composite
def cli_argvs(draw):
    """A subcommand and some of its own flags in any order (its input and
    required flags nearly always), now and then one it does not take, each
    flag with a value drawn from a small set of valid and invalid texts.
    Sampling runs are kept short: --trials and --grid are 2 unless drawn."""
    command = draw(st.sampled_from(sorted(OWN_FLAGS)))
    own = OWN_FLAGS[command]
    names = draw(st.lists(st.sampled_from(own), max_size=len(own), unique=True))
    for name in ("--f", "--halfspace", "--system", "--a"):
        # the input flag and the required ones, left out now and then
        if name in own and name not in names and draw(st.integers(0, 9)):
            names.append(name)
    if draw(st.integers(0, 9)) == 0:
        names.append(draw(st.sampled_from(sorted(FLAG_VALUES))))
    argv = [command]
    for name in names:
        value = draw(FLAG_VALUES[name])
        argv += [name] if value is None else [name, value]
    for name in ("--trials", "--grid"):
        if name in own and name not in names:
            argv += [name, "2"]
    return argv


@settings(max_examples=100, deadline=None)
@given(cli_argvs())
@example(["adelic"])  # raised TypeError (exit 1) before --f was checked
@example(["plot", "--f", "x1 + z*x2 + 1", "--arch-scan", "--out", "s.svg"])  # TypeError on Q(z)
def test_cli_exits_only_0_2_or_3(argv):
    # argparse rejects an argv by SystemExit(2); every other outcome is
    # main's return value
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3)
