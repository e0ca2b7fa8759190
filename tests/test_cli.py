import json
import subprocess
import sys
from pathlib import Path

import pytest

import circuitfan
from circuitfan import (
    LEX,
    PolyRing,
    cone_of,
    enumerate_fan,
    initial_ideal_w,
    parse_ideal_file,
    poly_str,
    universal_basis,
)
from circuitfan.cli import build_parser, main


IDEAL = "ring: Q; vars: x,y\ngens:\nx^2 + x*y + y^2\n"
PAIR = "ring: Q; vars: x,y\ngens:\nx^2 - y^2\nx*y\n"
# not symmetric in x and y, so a weight applied to the wrong variable shows
ASYM = "ring: Q; vars: x,y\ngens:\nx^2 + x*y\n"
# its fan cells and sampled fan depend on the tie order and on the step
TWISTED = "ring: Q; vars: x,y,z\ngens:\nx*z - y^2\nx^2 - y*z\n"


@pytest.fixture
def ideal_file(tmp_path):
    path = tmp_path / "I.ideal"
    path.write_text(IDEAL)
    return str(path)


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "J.ideal"
    path.write_text(PAIR)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestBasics:
    def test_gb(self, capsys, pair_file):
        code, doc = run(capsys, ["gb", pair_file, "--order", "lex"])
        assert code == 0
        assert doc["basis"]["elements"] == ["y^3", "x*y", "x^2 - y^2"]
        assert doc["config"]["seed"] == 0
        assert "timestamp" in doc

    def test_inw(self, capsys, ideal_file):
        code, doc = run(capsys, ["inw", ideal_file, "--weight", "2,1"])
        assert code == 0
        assert doc["initial_ideal"] == ["x^2"]

    def test_circuits(self, capsys, ideal_file):
        code, doc = run(capsys, ["circuits", ideal_file, "--trunc", "2"])
        assert code == 0
        assert doc["circuits"][0]["degree"] == 2
        assert [["x^2", "x*y", "y^2"]] == doc["circuits"][0]["circuits"]

    def test_alpha(self, capsys, ideal_file):
        code, doc = run(
            capsys, ["alpha", ideal_file, "--weight", "0,1", "--degree", "2"]
        )
        assert code == 0
        assert doc["weight"] == [1, 0]
        assert doc["permutation"] == [1, 0]
        assert doc["alpha"] == [1, 1]

    def test_hf(self, capsys, ideal_file):
        code, doc = run(capsys, ["hf", ideal_file, "--dmax", "4"])
        assert code == 0
        assert doc["quotient_dims"] == [1, 2, 2, 2, 2]

    def test_lexseg(self, capsys, ideal_file):
        code, doc = run(capsys, ["lexseg", ideal_file])
        assert code == 0
        assert doc["lex_segment"] == ["x^2"]
        assert doc["generator_bound"] == 2

    def test_lexseg_certifies_without_cap(self, capsys, tmp_path):
        path = tmp_path / "xz.ideal"
        path.write_text("ring: Q; vars: x,y,z\ngens:\nx^2\nz^4\n")
        code, doc = run(capsys, ["lexseg", str(path)])
        assert code == 0
        assert doc["generator_bound"] == 8
        # the reported cap is the last degree read and reproduces the answer
        code, again = run(capsys, ["lexseg", str(path), "--cap", str(doc["cap"])])
        assert code == 0
        assert again["lex_segment"] == doc["lex_segment"]
        assert again["generator_bound"] == doc["generator_bound"]

    def test_lexseg_cap_past_bound(self, capsys, tmp_path):
        path = tmp_path / "xy.ideal"
        path.write_text("ring: Q; vars: x,y\ngens:\nx^2\ny^7\n")
        code, doc = run(capsys, ["lexseg", str(path), "--cap", "9"])
        assert code == 0
        assert doc["generator_bound"] == 8

    def test_fan_cell(self, capsys, ideal_file):
        code, doc = run(capsys, ["fan-cell", ideal_file, "--weight", "2,1"])
        assert code == 0
        assert doc["inequalities"] == [[1, -1]]

    def test_fan_enum(self, capsys, ideal_file):
        code, doc = run(capsys, ["fan-enum", ideal_file, "--box", "3"])
        assert code == 0
        assert len(doc["fan"]["cells"]) == 3

    def test_fan_enum_oracle_agrees(self, capsys, ideal_file):
        _, sampled = run(capsys, ["fan-enum", ideal_file, "--box", "3"])
        _, oracle = run(capsys, ["fan-enum", ideal_file, "--box", "3", "--oracle"])
        pick = lambda doc: {
            tuple(c["initial_ideal"]) for c in doc["fan"]["cells"]
        }
        assert pick(sampled) == pick(oracle)

    def test_ugb(self, capsys, pair_file):
        code, doc = run(capsys, ["ugb", pair_file, "--box", "3"])
        assert code == 0
        assert set(doc["universal_basis"]) == {"x^2 - y^2", "x*y", "y^3", "x^3"}

    def test_flatfam(self, capsys, tmp_path):
        path = tmp_path / "F.ideal"
        path.write_text("ring: Q; vars: x,y\ngens:\nx^2 + x*y\n")
        code, doc = run(capsys, ["flatfam", str(path), "--weight", "1,0", "--at", "2"])
        assert code == 0
        assert doc["homogenized"] == ["x*y*t + x^2"]
        assert doc["at_1"] == ["x^2 + x*y"]
        assert doc["at_0"] == ["x^2"]
        assert doc["at"] == ["x^2 + 2*x*y"]

    @pytest.mark.parametrize(
        "field, expected",
        [("Q", "x^2 - 2*x*y + 4*y^2"), ("gf:7", "x^2 + 5*x*y + 4*y^2")],
    )
    def test_flatfam_negative_at(self, capsys, ideal_file, field, expected):
        argv = ["flatfam", ideal_file, "--weight", "1,0", "--field", field, "--at", "-2"]
        code, doc = run(capsys, argv)
        assert code == 0
        assert doc["at"] == [expected]

    def test_order_fraction_weight(self, capsys, pair_file):
        code, doc = run(capsys, ["gb", pair_file, "--order", "w:1/2,1;tie=drl"])
        assert code == 0
        assert doc["basis"]["order"] == "w:1,2;tie=drl"
        _, ref = run(capsys, ["gb", pair_file, "--order", "w:1,2;tie=drl"])
        assert doc["basis"] == ref["basis"]

    def test_weight_fraction(self, capsys, ideal_file):
        code, doc = run(capsys, ["inw", ideal_file, "--weight", "1/2,1"])
        assert code == 0
        assert doc["weight"] == [1, 2]

    def test_negative_weight_after_a_space(self, capsys, tmp_path):
        # argparse alone takes -1,0,5 for an option; a shift by the all-ones
        # vector leaves the initial ideal of a homogeneous ideal unchanged
        path = tmp_path / "t.ideal"
        path.write_text(TWISTED)
        code, doc = run(capsys, ["inw", str(path), "--weight", "-1,0,5"])
        assert code == 0 and doc["weight"] == [-1, 0, 5]
        _, ref = run(capsys, ["inw", str(path), "--weight", "0,1,6"])
        assert doc["initial_ideal"] == ref["initial_ideal"]
        _, glued = run(capsys, ["inw", str(path), "--weight=-1,0,5"])
        assert glued == doc

    def test_stab(self, capsys, ideal_file):
        code, doc = run(
            capsys, ["stab", ideal_file, "--weight", "1,0", "--seed", "5"]
        )
        assert code == 0
        assert doc["passed"] is True

    def test_fan_compare(self, capsys, tmp_path, ideal_file):
        other = tmp_path / "K.ideal"
        other.write_text(IDEAL)
        code, doc = run(
            capsys,
            ["fan-compare", ideal_file, "--other", str(other), "--mode", "deterministic"],
        )
        assert code == 0
        assert doc["verdict"] == "EQUAL-FAN-CERTIFIED"


def _ugb_doc(I, box, step):
    sketch = enumerate_fan(I, box, step)
    return {
        "box": box,
        "cells": len(sketch.cells),
        "universal_basis": [poly_str(g) for g in universal_basis(I, sketch)],
    }


class TestTieAndStep:
    """``--tie`` and ``--step`` reach the library.  On this ideal the lex
    tie changes the cell of (1,1,1) and the sampled fan, and step 2 changes
    the sampled fan, so a flag that was dropped would print the default's
    answer instead."""

    @pytest.mark.parametrize(
        "argv, library",
        [
            (
                ["fan-enum", "--box", "2", "--tie", "lex"],
                lambda I: {"fan": enumerate_fan(I, 2, tie=LEX).to_json()},
            ),
            (
                ["fan-cell", "--weight", "1,1,1", "--tie", "lex"],
                lambda I: {"weight": [1, 1, 1], **cone_of(I, (1, 1, 1), tie=LEX).to_json()},
            ),
            (
                ["inw", "--weight", "2,1,0", "--tie", "lex"],
                lambda I: {
                    "weight": [2, 1, 0],
                    "initial_ideal": [
                        poly_str(g)
                        for g in initial_ideal_w(I, (2, 1, 0), tie=LEX).groebner().elements
                    ],
                },
            ),
            (
                ["fan-enum", "--box", "2", "--step", "2"],
                lambda I: {"fan": enumerate_fan(I, 2, 2).to_json()},
            ),
            (["ugb", "--box", "2", "--step", "2"], lambda I: _ugb_doc(I, 2, 2)),
        ],
        ids=["fan-enum-tie", "fan-cell-tie", "inw-tie", "fan-enum-step", "ugb-step"],
    )
    def test_prints_the_library_answer(self, capsys, tmp_path, argv, library):
        path = tmp_path / "twisted.ideal"
        path.write_text(TWISTED)
        code, doc = run(capsys, ["--no-timestamp", argv[0], str(path), *argv[1:]])
        assert code == 0
        del doc["config"]
        _, I = parse_ideal_file(TWISTED)
        assert doc == json.loads(json.dumps(library(I)))

    def test_flags_change_the_answer(self):
        _, I = parse_ideal_file(TWISTED)
        assert cone_of(I, (1, 1, 1), tie=LEX) != cone_of(I, (1, 1, 1))
        assert enumerate_fan(I, 2, tie=LEX).to_json() != enumerate_fan(I, 2).to_json()
        assert enumerate_fan(I, 2, 2).to_json() != enumerate_fan(I, 2).to_json()


class TestUnsortedWeight:
    # alpha and stab sort the weight; the variables must move with it
    def test_alpha_renames_variables(self, capsys, tmp_path):
        path, swapped = tmp_path / "A.ideal", tmp_path / "B.ideal"
        path.write_text(ASYM)
        swapped.write_text(ASYM.replace("vars: x,y", "vars: y,x"))
        _, doc = run(capsys, ["alpha", str(path), "--weight", "0,1", "--degree", "2"])
        _, ref = run(capsys, ["alpha", str(swapped), "--weight", "1,0", "--degree", "2"])
        assert doc["permutation"] == [1, 0]
        assert doc["alpha"] == ref["alpha"] == [0, 1]

    def test_stab_renames_variables(self, capsys, tmp_path):
        path = tmp_path / "A.ideal"
        path.write_text(ASYM)
        argv = ["--weight", "0,1", "--identity-g", "--gtrials", "1", "--btrials", "1"]
        _, doc = run(capsys, ["stab", str(path), *argv])
        _, ref = run(capsys, ["inw", str(path), "--weight", "0,1"])
        # the report prints in the renamed ring (y*x); read it in x,y
        R = PolyRing(("x", "y"))
        got = [R.parse(g) for g in doc["trials"][0]["initial_ideal"]]
        assert got == [R.parse(g) for g in ref["initial_ideal"]] == [R.parse("x*y")]


class TestRoundTrip:
    def test_emitted_polynomials_reparse(self, capsys, pair_file):
        from circuitfan import PolyRing

        _, doc = run(capsys, ["gb", pair_file, "--order", "drl"])
        R = PolyRing(("x", "y"))
        for text in doc["basis"]["elements"]:
            assert text == __import__("circuitfan").poly_str(R.parse(text))


class TestDeterminism:
    def test_byte_identical_with_seed(self, capsys, ideal_file):
        argv = ["--no-timestamp", "gcs", ideal_file, "--trunc", "2", "--seed", "3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
        assert "timestamp" not in json.loads(first)

    def test_explicit_seed_wins(self, capsys, ideal_file):
        _, doc = run(capsys, ["gcs", ideal_file, "--trunc", "2", "--seed", "7"])
        assert doc["config"]["seed"] == 7

    def test_output_file(self, tmp_path, ideal_file):
        out = tmp_path / "doc.json"
        code = main(["--output", str(out), "--no-timestamp", "hf", ideal_file])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["quotient_dims"][0] == 1

    def test_unwritable_output_goes_to_stdout(self, capsys, tmp_path, ideal_file):
        target = tmp_path / "no" / "doc.json"
        code, doc = run(capsys, ["--output", str(target), "--no-timestamp", "gb", ideal_file])
        assert code == 1
        assert doc["error"]["kind"] == "FileNotFoundError"
        assert doc["basis"]["elements"] == ["x^2 + x*y + y^2"]
        assert not target.parent.exists()


class TestParser:
    def test_no_state_between_calls(self, capsys, ideal_file, pair_file):
        argv = ["--no-timestamp", "gb", pair_file, "--order", "lex", "--seed", "5"]
        _, doc = run(capsys, argv)
        assert doc["config"]["seed"] == 5
        assert doc["basis"]["elements"] == ["y^3", "x*y", "x^2 - y^2"]
        _, doc = run(capsys, ["gb", pair_file])
        assert doc["config"]["seed"] == 0
        assert doc["config"]["order"] == "drl"
        assert "timestamp" in doc
        _, doc = run(capsys, ["hf", ideal_file, "--dmax", "2"])
        assert doc["config"] == {
            "command": "hf",
            "dmax": 2,
            "field": None,
            "input": ideal_file,
            "no_timestamp": False,
            "seed": 0,
        }
        assert run(capsys, argv)[1]["config"]["seed"] == 5
        assert build_parser() is build_parser()

    def test_built_on_first_call_not_at_import(self):
        src = Path(circuitfan.__file__).resolve().parents[1]
        probe = "import circuitfan.cli as c; print(c.build_parser.cache_info().currsize)"
        out = subprocess.run(
            [sys.executable, "-c", probe], cwd=src, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "0"


class TestModuleEntry:
    def test_python_dash_m_matches_main(self, capsys, pair_file):
        argv = ["--no-timestamp", "gb", pair_file, "--order", "lex"]
        code = main(argv)
        want = capsys.readouterr().out
        src = Path(circuitfan.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-m", "circuitfan", *argv], cwd=src, capture_output=True, text=True
        )
        assert (out.returncode, out.stdout) == (code, want)


class TestFieldOverride:
    def test_gf_override(self, capsys, ideal_file):
        code, doc = run(
            capsys, ["gb", ideal_file, "--field", "gf:32003", "--order", "drl"]
        )
        assert code == 0
        assert doc["basis"]["elements"] == ["x^2 + x*y + y^2"]

    @pytest.mark.parametrize(
        "field, elements",
        [("Q", ["x - y", "y^2"]), ("gf:32003", ["x + 32002*y", "y^2"]), ("gf:7", ["x + 6*y", "y^2"])],
        ids=["Q", "GF32003", "GF7"],
    )
    def test_generators_read_in_the_override_field(self, capsys, tmp_path, field, elements):
        # the text, not its GF(7) reading (x + 6*y), is read in the override field
        path = tmp_path / "gf7.ideal"
        path.write_text("ring: GF(7); vars: x,y\ngens:\nx - y\n8*x^2 + y^2\n")
        code, doc = run(capsys, ["gb", str(path), "--field", field])
        assert code == 0
        assert doc["basis"]["elements"] == elements

    @pytest.mark.parametrize(
        "argv", [["gb", "Q7"], ["fan-compare", "I", "--other", "Q7"]], ids=["gb", "other"]
    )
    def test_override_parse_error_names_its_line(self, capsys, tmp_path, ideal_file, argv):
        path = tmp_path / "q.ideal"
        path.write_text("ring: Q; vars: x,y\ngens:\nx^2\n1/7*y\n")
        argv = [{"Q7": str(path), "I": ideal_file}.get(a, a) for a in argv]
        code, doc = run(capsys, argv + ["--field", "gf:7"])
        assert code == 1
        assert doc["error"] == {
            "kind": "ValueError",
            "reason": "line 4: denominator of '1/7' is zero in GF(7)",
        }

    def test_gcs_gf_flagged(self, capsys, ideal_file):
        _, doc = run(
            capsys, ["gcs", ideal_file, "--trunc", "2", "--field", "gf:32003"]
        )
        assert doc["genericity"] == "heuristic (finite field)"


class TestExitCodes:
    def test_missing_file(self, capsys, tmp_path):
        code, doc = run(capsys, ["gb", str(tmp_path / "nope.ideal")])
        assert code == 1
        assert doc["error"]["kind"] == "FileNotFoundError"

    def test_malformed_ideal(self, capsys, tmp_path):
        path = tmp_path / "bad.ideal"
        path.write_text("gens:\nx\n")
        code, doc = run(capsys, ["gb", str(path)])
        assert code == 1
        assert "error" in doc

    def test_parse_error_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "signed.ideal"
        path.write_text("ring: Q; vars: x,y\ngens:\nx^-1*y\n")
        code, doc = run(capsys, ["gb", str(path)])
        assert code == 1
        assert doc["error"] == {"kind": "ValueError", "reason": "line 3: bad exponent in 'x^-1'"}

    def test_inhomogeneous_rejected(self, capsys, tmp_path):
        path = tmp_path / "inh.ideal"
        path.write_text("ring: Q; vars: x,y\ngens:\nx^2 + y\n")
        code, doc = run(capsys, ["gb", str(path)])
        assert code == 1

    @pytest.mark.parametrize(
        "text, argv, reason",
        [
            (PAIR, ["fan-enum", "--oracle"], "--oracle needs a principal ideal"),
            ("ring: Q; vars: x,y; foo: 1\ngens:\nx^2\n", ["gb"], "line 1: unexpected 'foo: 1'"),
            ("ring: Q; vars: x,x\ngens:\nx^2\n", ["gb"], "variable names must be distinct"),
            ("ring: Q; vars: x,1y\ngens:\nx^2\n", ["gb"], "bad variable name '1y'"),
            (IDEAL, ["circuits", "--trunc", "-1"], "truncation degree must be non-negative"),
            (IDEAL, ["hf", "--dmax", "-1"], "dmax must be non-negative"),
            (IDEAL, ["lexseg", "--cap", "0"], "cap must be positive"),
            (IDEAL, ["lexseg", "--cap", "-1"], "cap must be positive"),
            # TWISTED is in three variables
            (IDEAL, ["fan-compare", "--other", "TWISTED"], "ideals in different rings"),
            (IDEAL, ["alpha", "--weight", "1,0", "--degree", "-1"], "degree must be non-negative"),
            (IDEAL, ["fan-enum", "--oracle", "--box", "0"], "box bound and step must be positive"),
            (IDEAL, ["fan-enum", "--oracle", "--step", "0"], "box bound and step must be positive"),
        ],
        ids=[
            "oracle", "header", "repeated-var", "var-name", "trunc", "dmax", "cap", "negative-cap", "rings",
            "degree", "oracle-box", "oracle-step",
        ],
    )
    def test_bad_input_document(self, capsys, tmp_path, text, argv, reason):
        path = tmp_path / "I.ideal"
        path.write_text(text)
        other = tmp_path / "other.ideal"
        other.write_text(TWISTED)
        argv = [argv[0], str(path)] + [str(other) if a == "TWISTED" else a for a in argv[1:]]
        code, doc = run(capsys, argv)
        assert code == 1
        assert doc["error"] == {"kind": "ValueError", "reason": reason}

    def test_truncated_circuits_exit_2(self, capsys, ideal_file):
        code, doc = run(
            capsys, ["circuits", ideal_file, "--trunc", "3", "--size-cap", "1"]
        )
        assert code == 2
        assert doc["truncated_at_size_cap"] == 1

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_bad_size_cap_on_zero_pieces(self, capsys, tmp_path, cap):
        # the pieces up to degree 1 are zero, and the cap is refused anyway
        path = tmp_path / "two.ideal"
        path.write_text("ring: Q; vars: x,y\ngens:\nx^2 + 3*x*y - 2*y^2\nx*y^2 - y^3\n")
        code, doc = run(capsys, ["circuits", str(path), "--trunc", "1", "--size-cap", cap])
        assert code == 1
        assert "error" in doc

    def test_zero_denominator_over_q(self, capsys, tmp_path):
        path = tmp_path / "z.ideal"
        path.write_text("ring: Q; vars: x,y\ngens:\nx^2 - 1/0*y^2\n")
        code, doc = run(capsys, ["gb", str(path)])
        assert code == 1
        assert doc["error"]["reason"].startswith("line 3:")

    def test_zero_denominator_mod_p(self, capsys, tmp_path):
        path = tmp_path / "z.ideal"
        path.write_text("ring: GF(5); vars: x,y\ngens:\nx^2 - 1/5*y^2\n")
        code, doc = run(capsys, ["gb", str(path)])
        assert code == 1
        assert doc["error"]["reason"].startswith("line 3:")

    def test_zero_denominator_in_argument(self, capsys, ideal_file):
        code, doc = run(capsys, ["flatfam", ideal_file, "--weight", "1,0", "--at", "1/0"])
        assert code == 1
        assert doc["error"]["kind"] == "ValueError"

    @pytest.mark.parametrize("field", ["Q", "gf:7"])
    def test_decimal_scalar_rejected(self, capsys, ideal_file, field):
        argv = ["flatfam", ideal_file, "--weight", "1,0", "--field", field, "--at", "0.5"]
        code, doc = run(capsys, argv)
        assert code == 1
        assert doc["error"]["kind"] == "ValueError"
        assert "'0.5'" in doc["error"]["reason"]

    @pytest.mark.parametrize("value", ["0.5", "1e3"])
    @pytest.mark.parametrize(
        "argv",
        [["inw", "--weight", "{},1"], ["gb", "--order", "w:{},1;tie=drl"]],
        ids=["weight", "order"],
    )
    def test_weight_scalar_grammar(self, capsys, ideal_file, argv, value):
        command, flag, template = argv
        code, doc = run(capsys, [command, ideal_file, flag, template.format(value)])
        assert code == 1
        assert doc["error"]["kind"] == "ValueError"
        assert f"'{value}'" in doc["error"]["reason"]

    @pytest.mark.parametrize("flag", ["--gtrials", "--btrials"])
    def test_stab_zero_trials(self, capsys, ideal_file, flag):
        code, doc = run(capsys, ["stab", ideal_file, "--weight", "1,0", flag, "0"])
        assert code == 1
        assert "passed" not in doc
        assert doc["error"]["kind"] == "ValueError"

    def test_modulus_too_large(self, capsys, tmp_path):
        path = tmp_path / "big.ideal"
        path.write_text("ring: GF(3317044064679887385961981); vars: x,y\ngens:\nx^2\n")
        code, doc = run(capsys, ["gb", str(path)])
        assert code == 1
        assert "too large" in doc["error"]["reason"]

    def test_cap_too_small_exit_2(self, capsys, tmp_path):
        path = tmp_path / "xy.ideal"
        path.write_text("ring: Q; vars: x,y\ngens:\nx*y\n")
        code, doc = run(capsys, ["lexseg", str(path), "--cap", "2"])
        assert code == 2
        assert doc["error"]["kind"] == "CapTooSmallError"

    def test_cap_at_generator_degree_exit_2(self, capsys, tmp_path):
        path = tmp_path / "xy.ideal"
        path.write_text("ring: Q; vars: x,y\ngens:\nx^2\ny^7\n")
        code, doc = run(capsys, ["lexseg", str(path), "--cap", "8"])
        assert code == 2
        assert doc["error"]["kind"] == "CapTooSmallError"

    def test_cap_below_initial_generators_exit_2(self, capsys, tmp_path):
        # no lex generator in degree 2, but in(I) has generators in degree 3
        path = tmp_path / "cubes.ideal"
        path.write_text("ring: Q; vars: x,y\ngens:\nx^3\ny^3\n")
        code, doc = run(capsys, ["lexseg", str(path), "--cap", "2"])
        assert code == 2
        assert doc["error"] == {
            "kind": "CapTooSmallError",
            "reason": "in(I) has generators in degree 3; increase cap beyond 3",
        }

    @pytest.mark.parametrize("retries", ["0", "-1"])
    def test_gcs_retries_must_be_positive(self, capsys, ideal_file, retries):
        code, doc = run(capsys, ["gcs", ideal_file, "--trunc", "2", "--retries", retries])
        assert code == 1
        assert "circuits" not in doc
        assert doc["error"]["kind"] == "ValueError"

    def test_exhausted_sampler_exit_2(self, capsys, tmp_path, monkeypatch):
        # a sampler that draws only singular matrices ends in a document
        monkeypatch.setattr(circuitfan.RationalField, "random", lambda self, rng, bound: 0)
        path = tmp_path / "two.ideal"
        path.write_text("ring: Q; vars: x,y\ngens:\nx^2 + 3*x*y - 2*y^2\nx*y^2 - y^3\n")
        code, doc = run(capsys, ["gcs", str(path), "--trunc", "2"])
        assert code == 2
        assert "circuits" not in doc
        assert doc["error"]["kind"] == "UncertifiedError"

    def test_deeply_nested_order_exit_1(self, capsys, pair_file):
        # 1,199 nested weights pass the interpreter's recursion limit
        order = "".join(f"w:{i},0;tie=" for i in range(1, 1200)) + "drl"
        code, doc = run(capsys, ["gb", pair_file, "--order", order])
        assert code == 1
        assert "basis" not in doc
        assert doc["error"]["kind"] == "RecursionError"

    def test_out_of_memory_exit_2(self, capsys, ideal_file, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("circuitfan.cli.generic_fan_compare", exhausted)
        code, doc = run(capsys, ["fan-compare", ideal_file, "--other", ideal_file])
        assert code == 2
        assert doc["error"] == {"kind": "MemoryError", "reason": "out of memory"}

    @pytest.mark.parametrize(
        "equality, reason",
        [
            ((1, 0), "weight (-2, -2) is not interior to its own cone"),
            ((1, -1), "weights (-2, -2) and (-2, -1) share an initial ideal but not a cone"),
        ],
        ids=["not-interior", "shared-ideal"],
    )
    def test_fan_inconsistency_exit_2(self, capsys, tmp_path, monkeypatch, equality, reason):
        # (x) has one cell; a patched _cone contradicts the sampled weights
        monkeypatch.setattr("circuitfan.fan._cone", lambda splits: circuitfan.Cone.build([equality], []))
        path = tmp_path / "x.ideal"
        path.write_text("ring: Q; vars: x,y\ngens:\nx\n")
        code, doc = run(capsys, ["fan-enum", str(path), "--box", "2"])
        assert code == 2
        assert "cells" not in doc
        assert doc["error"] == {"kind": "FanConsistencyError", "reason": reason}

    def test_weight_length_mismatch(self, capsys, pair_file):
        code, doc = run(capsys, ["gb", pair_file, "--order", "w:1;tie=drl"])
        assert code == 1
        assert "basis" not in doc
        assert "for 2 variables" in doc["error"]["reason"]

    @pytest.mark.parametrize(
        "argv", [["alpha", "--degree", "2"], ["stab"]], ids=["alpha", "stab"]
    )
    def test_short_weight_rejected(self, capsys, tmp_path, argv):
        # the library pads a short weight with zeros; the CLI takes none
        path = tmp_path / "T.ideal"
        path.write_text("ring: Q; vars: x,y,z\ngens:\nx^2 + y*z\n")
        code, doc = run(capsys, [argv[0], str(path), "--weight", "1", *argv[1:]])
        assert code == 1
        assert "weight" not in doc
        assert "1 entries for 3 variables" in doc["error"]["reason"]

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["circuits", "{}", "--trunc", "abc"], "invalid int value: 'abc'"),
            (["circuits", "{}"], "required: --trunc"),
            (["bogus", "{}"], "invalid choice: 'bogus'"),
        ],
        ids=["bad-int", "missing-flag", "unknown-command"],
    )
    def test_malformed_argv_exit_1(self, capsys, ideal_file, argv, reason):
        code, doc = run(capsys, [a.format(ideal_file) for a in argv])
        assert code == 1
        assert doc["error"]["kind"] == "ArgumentError"
        assert reason in doc["error"]["reason"]
        assert list(doc) == ["error"]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: circuitfan" in capsys.readouterr().out

    def test_packed_overflow_exit_1(self, capsys, pair_file, monkeypatch):
        # no headroom: degree-2 generators then fit degree 3, and the lex
        # basis of the pair brings y^3, whose S-pair with x^2 - y^2 has degree 5
        monkeypatch.setattr("circuitfan.groebner._HEADROOM_BITS", 0)
        code, doc = run(capsys, ["gb", pair_file, "--order", "lex"])
        assert code == 1
        assert doc["error"]["kind"] == "OverflowError"
