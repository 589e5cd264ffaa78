import json

import pytest

from amoebas import archimedean
from amoebas.cli import main, parse_halfspace
from amoebas.classify import Halfspace
from amoebas.polyhedral import complex_from_json, complexes_equal

from conftest import tripod


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
        assert json.loads(out)["report"]["side"] == "conclusion"

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

    def test_monomial_slice_phase_is_skipped(self, capsys):
        # the slice at phase 0 degenerates to a monomial, other phases do not
        code, out, _ = run_cli(
            capsys, "check-halfspace", "--f", "x1^-2*x2 - 1 + x2^2", "--halfspace", "dir:-1,0"
        )
        assert code == 0
        verdicts = [a["verdict"] for a in json.loads(out)["report"]["archimedean"]]
        assert "meets" in verdicts

    def test_exponent_spread_exit_code(self, capsys, monkeypatch):
        # a broken guard fails on the stub (exit 3) instead of allocating
        def no_slice(*args):
            raise AssertionError("slice solved past the spread guard")

        monkeypatch.setattr(archimedean, "_slice_roots", no_slice)
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
            "--seed",
            "7",
        ]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("AMOEBA_SEED", "123")
        code, out, _ = run_cli(
            capsys, "ekl-check", "--f", "x1*x2-2*x1-2*x2+1"
        )
        assert code == 0
