"""End-to-end tests for the command-line interface and its exit codes."""

import argparse
import json
from pathlib import Path
from unittest import mock

import pytest

from cycover import cli, regseq
from cycover.cover import default_prime, random_instance, sample_point_off_branch
from cycover.family import validate_family
from cycover.parsing import MAX_NESTING, parse_instance_file
from cycover.poly import PrimeField
from cycover.report import (
    VERDICT_CERTIFIED,
    VERDICT_INCONCLUSIVE,
    VERDICT_REFUTED,
    VERDICT_UNSUPPORTED,
    reports_equal_modulo_timings,
)
from cycover.seeds import PURPOSE_POINT_OFF, derive_seed
from cycover.series import TruncatedSeries
from helpers import default_instance_text

DATA = Path(__file__).parent / "data"
WORKHORSE = validate_family(5, 4, 2, 2)
PRIME = default_prime(WORKHORSE)

QUADRIC_FILE = """\
# quadric cover; the base hypersurface is singular at (0,0,0,1,0,0,0)
M = 5
m = 2
l = 4
K = 2
f = x0*x1 + x2^2
g = x0^8 + x1^8 + x2^8 + x3^8 + x4^8 + x5^8 + x6^8
"""

# 'g1'..'gK' coefficient forms in place of 'g' are not part of the format.
COEFFICIENT_FORMS_FILE = """\
M = 5
m = 4
l = 2
K = 2
f = x0^3*x1 + x1^4 - x2^4 + x3^4 + x4^4 + x5^4 + x6^4
g1 = x0^2 + x1^2
g2 = x0^4 + x1^4
"""


# On the branch at (1:0:...:0), with a regular R2 sequence.  A drawn arc's
# leading branch constant is 101 times a small rational, never a rational
# square, so the arc's parameter is rescaled instead.
RATIONAL_ON_BRANCH_FILE = """\
M = 5
m = 4
l = 2
K = 2
f = x0^3*x1 + x0^2*x2^2 + x0*x3^3 + x4^4 + x5^4 + x6^4
g = 101*x0^3*x5 + 101*x0^2*x6^2 + 101*x1^4 + 101*x2^4 + 101*x3^4 + 101*x4^4
"""


# A K = 3 cover through the off-branch point (1:0:...:0).
CUBIC_FILE = """\
M = 5
m = 2
l = 2
K = 3
f = x0*x1 + x2^2 + x3^2 + x4^2 + x5^2 + x6^2
g = x0^6 + x1^6 + x2^6 + x3^6 + x4^6 + x5^6 + x6^6
"""


# The coefficient 1/1000003 has no value in GF(1000003).
VANISHING_DENOMINATOR_FILE = """\
M = 5
m = 4
l = 2
K = 2
f = 1/1000003*x0^4 + x1^4 + x2^4 + x3^4 + x4^4 + x5^4 + x6^4
g = x0^4 + x1^4
"""


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workhorse_file(tmp_path_factory):
    instance = random_instance(WORKHORSE, 42, PrimeField(PRIME))
    path = tmp_path_factory.mktemp("cli") / "workhorse.inst"
    path.write_text(default_instance_text(instance, seed=11))
    return str(path)


@pytest.fixture(scope="module")
def quadric_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "quadric.inst"
    path.write_text(QUADRIC_FILE)
    return str(path)


class TestFamilyAndBound:
    def test_family_reports_invariants(self, capsys):
        code, out, _ = run_cli(["family", "5", "4", "2", "2"], capsys)
        assert code == cli.EXIT_CERTIFIED
        doc = json.loads(out)
        record = doc["records"][0]
        assert record["degree"] == 8
        assert record["branch_degree"] == 4
        assert doc["summary"]["verdict"] == VERDICT_CERTIFIED

    def test_family_violating_relation_exits_2(self, capsys):
        code, _, err = run_cli(["family", "5", "4", "2", "3"], capsys)
        assert code == cli.EXIT_INPUT_ERROR
        assert "differs from dimension" in err

    def test_bound_supported_family(self, capsys):
        code, out, _ = run_cli(["bound", "7", "5", "3", "2"], capsys)
        assert code == cli.EXIT_CERTIFIED
        doc = json.loads(out)
        main = next(r for r in doc["records"] if r["case"] == "MainCase")
        assert main["bound"] == "9/25"
        assert main["threshold"] == "2/5"
        assert main["comparison"] == "StrictlyBelow"
        assert main["schedule_product"] == "25/9"
        ramified = next(r for r in doc["records"] if r["case"] == "RamifiedCase")
        assert ramified["comparison"] == "Equal"
        assert ramified["margin"] == "0/1"

    def test_bound_partially_supported_family_is_inconclusive(self, capsys):
        # branch weight 2 is outside the off-branch ordering's range
        code, out, _ = run_cli(["bound", "5", "4", "2", "2"], capsys)
        assert code == cli.EXIT_INCONCLUSIVE
        doc = json.loads(out)
        main = next(r for r in doc["records"] if r["case"] == "MainCase")
        assert main["applies"] is False
        assert main["verdict"] == VERDICT_UNSUPPORTED


class TestSeriesAndParse:
    def test_series_table_and_self_check(self, capsys):
        code, out, _ = run_cli(["series", "2", "6", "--seed", "5"], capsys)
        assert code == cli.EXIT_CERTIFIED
        doc = json.loads(out)
        table = doc["records"][0]
        assert table["coefficients"][:3] == ["1/2", "-1/8", "1/16"]
        check = doc["records"][1]
        assert check["kind"] == "root-self-check"
        assert check["verdict"] == VERDICT_CERTIFIED

    def test_series_rejects_bad_root_index(self, capsys):
        code, _, err = run_cli(["series", "1", "6"], capsys)
        assert code == cli.EXIT_INPUT_ERROR
        assert "at least 2" in err

    def test_parse_prints_canonical_form(self, capsys):
        code, out, _ = run_cli(
            ["parse", "x0 + x0", "--vars", "x0,x1"], capsys
        )
        assert code == cli.EXIT_CERTIFIED
        assert json.loads(out)["summary"]["canonical"] == "2*x0"

    def test_parse_rejects_names_no_expression_can_use(self, capsys):
        # --vars follows the instance files' name rule.
        for names, bad in (("x,+", "+"), ("2,x", "2"), ("x,1x", "1x")):
            code, out, err = run_cli(["parse", "x + 2", "--vars", names], capsys)
            assert code == cli.EXIT_INPUT_ERROR
            assert out == ""
            assert f"error: invalid variable name {bad!r} in --vars" in err
        code, out, _ = run_cli(["parse", "x + 2", "--vars", "x,_y2"], capsys)
        assert code == cli.EXIT_CERTIFIED
        assert json.loads(out)["options"]["vars"] == ["x", "_y2"]

    def test_parse_syntax_error_exits_2(self, capsys):
        code, _, err = run_cli(["parse", "2x0", "--vars", "x0"], capsys)
        assert code == cli.EXIT_INPUT_ERROR
        assert "line 1, column 2" in err

    def test_parse_non_ascii_digit_is_a_syntax_error(self, capsys):
        # Numbers take ASCII digits only: a superscript or Arabic-Indic digit
        # is an unexpected character at its line and column, not a number.
        for expression in ("x0^²", "x0^٣ + ١"):
            code, out, err = run_cli(["parse", expression, "--vars", "x0"], capsys)
            assert code == cli.EXIT_INPUT_ERROR
            assert out == ""
            assert f"syntax error at line 1, column 4: unexpected character {expression[3]!r}" in err

    def test_parse_value_error_is_not_a_syntax_error(self, capsys):
        # Well formed, but 1/13 has no value in GF(13).
        code, _, err = run_cli(
            ["parse", "x + 1/13", "--vars", "x", "--prime", "13"], capsys
        )
        assert code == cli.EXIT_INPUT_ERROR
        assert (
            "value error at line 1, column 5: denominator of 1/13 vanishes mod 13"
            in err
        )
        assert "syntax error" not in err

    def test_parse_nesting_limit(self, capsys):
        depth = MAX_NESTING
        code, out, _ = run_cli(
            ["parse", "(" * depth + "x" + ")" * depth, "--vars", "x"], capsys
        )
        assert code == cli.EXIT_CERTIFIED
        assert json.loads(out)["summary"]["canonical"] == "x"
        # One level more, or far more, is bad input, not a recursion overflow.
        for depth in (MAX_NESTING + 1, 3000):
            code, out, err = run_cli(
                ["parse", "(" * depth + "x" + ")" * depth, "--vars", "x"], capsys
            )
            assert code == cli.EXIT_INPUT_ERROR
            assert out == ""
            assert (
                f"syntax error at line 1, column {MAX_NESTING + 1}: parentheses "
                f"nested more than {MAX_NESTING} deep" in err
            )


class TestLocalize:
    def test_smooth_point(self, quadric_file, capsys):
        code, out, _ = run_cli(
            ["localize", quadric_file, "--point", "1,0,0,1/2,0,0,0"], capsys
        )
        assert code == cli.EXIT_CERTIFIED
        record = json.loads(out)["records"][0]
        assert record["pivot"] == 0
        assert record["smooth"] is True
        assert record["case"] == "R1a"
        assert record["branch_position"] == "off"

    def test_singular_point_exits_1(self, quadric_file, capsys):
        code, out, _ = run_cli(
            ["localize", quadric_file, "--point", "0,0,0,1,0,0,0"], capsys
        )
        assert code == cli.EXIT_REFUTED
        record = json.loads(out)["records"][0]
        assert record["smooth"] is False
        assert record["verdict"] == VERDICT_REFUTED

    def test_point_off_the_hypersurface_exits_2(self, quadric_file, capsys):
        code, _, err = run_cli(
            ["localize", quadric_file, "--point", "1,1,1,0,0,0,0"], capsys
        )
        assert code == cli.EXIT_INPUT_ERROR
        assert "does not lie on the base hypersurface" in err

    def test_wrong_coordinate_count_exits_2(self, quadric_file, capsys):
        code, _, err = run_cli(
            ["localize", quadric_file, "--point", "1,0,0"], capsys
        )
        assert code == cli.EXIT_INPUT_ERROR
        assert "7" in err


class TestCertify:
    def test_sampled_points_certify(self, workhorse_file, capsys):
        code, out, _ = run_cli(
            [
                "certify",
                workhorse_file,
                "--points-off",
                "1",
                "--points-on",
                "1",
            ],
            capsys,
        )
        assert code == cli.EXIT_CERTIFIED
        doc = json.loads(out)
        assert doc["summary"]["verdict"] == VERDICT_CERTIFIED
        assert doc["summary"]["certified"] == 2
        cases = {r["case"] for r in doc["records"]}
        assert cases == {"R1a", "R2"}
        off = next(r for r in doc["records"] if r["case"] == "R1a")
        labels = [c["label"] for c in off["order_checks"]]
        assert labels == [
            "hypertangent level 1",
            "hypertangent level 2",
            "hypertangent level 3",
        ]
        on = next(r for r in doc["records"] if r["case"] == "R2")
        assert [c["label"] for c in on["order_checks"]] == [
            "branch truncation level 1"
        ]

    def test_reports_are_deterministic_modulo_timings(
        self, workhorse_file, capsys
    ):
        argv = [
            "certify",
            workhorse_file,
            "--points-off",
            "1",
            "--points-on",
            "0",
            "--seed",
            "9",
        ]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert reports_equal_modulo_timings(first, second)
        assert first != second  # timings differ

    def test_explicit_smooth_point(self, workhorse_file, capsys):
        document = parse_instance_file(open(workhorse_file).read())
        point = sample_point_off_branch(document.instance, 77)
        spec = ",".join(str(int(c)) for c in point)
        code, out, _ = run_cli(
            ["certify", workhorse_file, "--point", spec], capsys
        )
        assert code == cli.EXIT_CERTIFIED
        record = json.loads(out)["records"][0]
        assert record["source"] == "explicit"
        assert record["regularity"]["outcome"] == "CertifiedRegular"

    def test_singular_requested_point_reported_and_exit_1(
        self, quadric_file, capsys
    ):
        code, out, _ = run_cli(
            ["certify", quadric_file, "--point", "0,0,0,1,0,0,0"], capsys
        )
        assert code == cli.EXIT_REFUTED
        record = json.loads(out)["records"][0]
        assert record["smooth"] is False
        assert record["verdict"] == VERDICT_REFUTED
        assert "singular" in record["reason"]

    def test_degenerate_instance_refuted_honestly(self, quadric_file, capsys):
        # This sparse instance has vanishing mid-degree branch pieces in the
        # pivot chart, so the stated sequence contains zeros: a genuine
        # refutation of regularity, reported with the failing prefix.
        code, out, _ = run_cli(
            ["certify", quadric_file, "--point", "1,0,0,0,0,0,0"], capsys
        )
        assert code == cli.EXIT_REFUTED
        record = json.loads(out)["records"][0]
        assert record["regularity"]["outcome"] == "RefutedAtPrefix"
        assert record["regularity"]["refuted_prefix"] == 3

    def test_coefficient_form_keys_rejected_exit_2(self, tmp_path, capsys):
        path = tmp_path / "coefficient-forms.inst"
        path.write_text(COEFFICIENT_FORMS_FILE)
        for argv in (
            ["certify", str(path)],
            ["localize", str(path), "--point", "1,0,0,0,0,0,0"],
            ["campaign", str(path), "--trials", "1"],
        ):
            code, out, err = run_cli(argv, capsys)
            assert code == cli.EXIT_INPUT_ERROR, argv
            assert out == ""
            assert "unknown key 'g1'" in err

    def test_deeply_nested_form_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "nested.inst"
        form = "x0*x1 + x2^2"
        path.write_text(QUADRIC_FILE.replace(form, "(" * 3000 + form + ")" * 3000))
        code, out, err = run_cli(["certify", str(path)], capsys)
        assert code == cli.EXIT_INPUT_ERROR
        assert out == ""
        assert (
            f"instance file error at line 6: in the value of 'f': parentheses "
            f"nested more than {MAX_NESTING} deep" in err
        )

    def test_instance_file_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.inst"
        path.write_text("M = 5\nm = 4\nl = 2\nK = 2\nf = x0^\ng = x0^4\n")
        code, _, err = run_cli(["certify", str(path)], capsys)
        assert code == cli.EXIT_INPUT_ERROR
        assert "line 5" in err

    def test_prime_not_1_mod_k_rejected(self, tmp_path, capsys):
        # K = 3 needs a prime that is 1 mod 3; 101 is not.
        family = validate_family(5, 2, 2, 3)
        instance = random_instance(family, 3)
        path = tmp_path / "cubic.inst"
        path.write_text(default_instance_text(instance))
        code, _, err = run_cli(
            ["certify", str(path), "--prime", "101"], capsys
        )
        assert code == cli.EXIT_INPUT_ERROR
        assert "1 mod 3" in err

    @pytest.mark.parametrize(
        "arc_flags",
        [["--arc-count", "1", "--arc-order", "2"], []],
        ids=["one-short-arc", "default-arcs"],
    )
    def test_rational_on_branch_certifies(self, arc_flags, tmp_path, capsys):
        path = tmp_path / "rational-on-branch.inst"
        path.write_text(RATIONAL_ON_BRANCH_FILE)
        code, out, err = run_cli(
            ["certify", str(path), "--point", "1,0,0,0,0,0,0"] + arc_flags,
            capsys,
        )
        assert code == cli.EXIT_CERTIFIED
        assert err == ""
        record = json.loads(out)["records"][0]
        assert record["branch_position"] == "on"
        assert record["regularity"]["outcome"] == "CertifiedRegular"
        assert record["verdict"] == VERDICT_CERTIFIED
        arcs = 1 if arc_flags else 5
        assert [
            (check["label"], check["arcs"], check["pass"])
            for check in record["order_checks"]
        ] == [("branch truncation level 1", arcs, arcs)]

    @pytest.mark.parametrize("command", ["certify", "localize"])
    @pytest.mark.parametrize(
        "header, args",
        [("prime = 3\n", []), ("", ["--prime", "3"])],
        ids=["file-prime", "prime-override"],
    )
    def test_prime_dividing_cover_degree_exits_2(
        self, command, header, args, tmp_path, capsys
    ):
        # K = 3 over GF(3): neither the root pieces nor K-th roots of series
        # exist, since both divide by K.
        path = tmp_path / "cubic.inst"
        path.write_text(header + CUBIC_FILE)
        code, out, err = run_cli(
            [command, str(path), "--point", "1,0,0,0,0,0,0"] + args, capsys
        )
        assert code == cli.EXIT_INPUT_ERROR
        assert out == ""
        assert "the prime 3 divides the cover degree K = 3" in err
        assert "Traceback" not in err

    def test_prime_dividing_cover_degree_names_the_prime_line(self, tmp_path, capsys):
        # The fault is the prime, so the error names its line, not that of f.
        path = tmp_path / "cubic.inst"
        path.write_text(CUBIC_FILE.replace("K = 3\n", "K = 3\nprime = 3\n"))
        code, out, err = run_cli(["certify", str(path), "--point", "1,0,0,0,0,0,0"], capsys)
        assert code == cli.EXIT_INPUT_ERROR
        assert out == ""
        assert "instance file error at line 5: the prime 3 divides" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["campaign", "--family", "5,4,2,2", "--trials", "1", "--seed", "3"],
            ["certify", None],
        ],
        ids=["campaign", "certify"],
    )
    def test_sampler_fault_is_inconclusive_not_refuted(
        self, command, workhorse_file, monkeypatch, capsys
    ):
        # Roots that are not roots make the off-branch sampler's recheck
        # fail (ArithmeticError), and no roots at all exhaust its budget of
        # lines (SampleBudgetError).  Neither refutes anything: each is a
        # sampling-failure record and exit 3, never exit 1, which means
        # "refuted".
        import cycover.cover

        def non_roots(coeffs, p, seed=0):
            value = lambda r: sum(c * pow(r, k, p) for k, c in enumerate(coeffs)) % p
            return [next(r for r in range(p) if value(r))]

        def no_roots(coeffs, p, seed=0):
            return []

        # The whole record, keys in order: only a campaign record has a
        # trial, and its seeds name the instance too.
        if command[0] == "campaign":
            head = [("kind", "sampling-failure"), ("trial", 0)]
            seeds = {
                "instance": derive_seed(3, trial=0),
                "point": derive_seed(3, trial=0, point=0, purpose=PURPOSE_POINT_OFF),
            }
        else:
            head = [("kind", "sampling-failure")]
            seeds = {"point": derive_seed(11, point=0, purpose=PURPOSE_POINT_OFF)}
        argv = [workhorse_file if arg is None else arg for arg in command]
        for fault, reason in [
            (non_roots, "sampled point fails re-verification"),
            (no_roots, "no off-branch point found on 64 random lines"),
        ]:
            monkeypatch.setattr(cycover.cover, "poly1_roots", fault)
            code, out, _ = run_cli(argv + ["--points-off", "1", "--points-on", "0"], capsys)
            assert code == cli.EXIT_INCONCLUSIVE
            doc = json.loads(out)
            (record,) = doc["records"]
            assert list(record.items()) == head + [
                ("point_index", 0),
                ("source", "sampled-off"),
                ("seeds", seeds),
                ("reason", reason),
                ("verdict", VERDICT_INCONCLUSIVE),
            ]
            assert list(record["seeds"]) == list(seeds)
            assert doc["summary"]["verdict"] == VERDICT_INCONCLUSIVE

    def test_conflicting_prime_override_rejected(self, workhorse_file, capsys):
        code, _, err = run_cli(
            ["certify", workhorse_file, "--prime", "13"], capsys
        )
        assert code == cli.EXIT_INPUT_ERROR
        assert "cannot be rechecked" in err

    @pytest.mark.parametrize(
        "header, args, message",
        [
            (
                "prime = 1000003\n",
                ["--points-off", "1", "--points-on", "0"],
                "line 6: in the value of 'f': denominator of 1/1000003 "
                "vanishes mod 1000003 (expression column 1)",
            ),
            (
                "",
                ["--prime", "1000003", "--points-off", "1", "--points-on", "0"],
                "denominator of 1/1000003 vanishes mod 1000003",
            ),
            (
                "",
                ["--prime", "13", "--point", "1/13,1,0,0,0,0,0"],
                "denominator of 1/13 vanishes mod 13",
            ),
        ],
        ids=["file-prime", "prime-override", "point"],
    )
    def test_denominator_vanishing_mod_p_exits_2(
        self, header, args, message, tmp_path, capsys
    ):
        path = tmp_path / "vanishing.inst"
        path.write_text(header + VANISHING_DENOMINATOR_FILE)
        code, _, err = run_cli(["certify", str(path)] + args, capsys)
        assert code == cli.EXIT_INPUT_ERROR
        assert message in err

    def test_denominator_of_the_rank_check_prime_certifies(self, tmp_path, capsys):
        # 1/2147483629 has no value mod the first rank-check prime, so the
        # rank certificate checks rank mod the next prime, 2147483587.
        # Both terms vanish at the point (x4 = 0), which stays on f.
        text = (DATA / "rational-5422.inst").read_text()
        for term in ("2*x4^4", "x2*x3*x4*x5"):
            assert f"+ {term} " in text
            text = text.replace(f"+ {term} ", f"+ 1/2147483629*{term} ")
        path = tmp_path / "rank-prime.inst"
        path.write_text(text)
        code, out, _ = run_cli(
            ["certify", str(path), "--point", "2,1,-1,1,0,3,1"], capsys
        )
        assert code == cli.EXIT_CERTIFIED
        record = json.loads(out)["records"][0]
        assert record["regularity"]["outcome"] == "CertifiedRegular"


class TestCampaign:
    def test_branch_weight_one_on_branch_unsupported(self, capsys):
        # m + K = 7 members in 6 chart variables: an Unsupported record and
        # exit 3, with the report written.
        code, out, _ = run_cli(
            ["campaign", "--family", "5,3,1,4", "--trials", "1",
             "--points-off", "0", "--points-on", "1"],
            capsys,
        )
        assert code == cli.EXIT_INCONCLUSIVE
        doc = json.loads(out)
        record = doc["records"][0]
        assert record["case"] is None
        assert record["verdict"] == VERDICT_UNSUPPORTED
        assert "R2 has 7 members in 6 chart variables" in record["reason"]
        assert doc["summary"]["verdict"] == VERDICT_UNSUPPORTED

    def test_small_campaign_certifies(self, capsys):
        code, out, _ = run_cli(
            [
                "campaign",
                "--family",
                "5,4,2,2",
                "--trials",
                "1",
                "--points-off",
                "1",
                "--points-on",
                "1",
                "--seed",
                "3",
            ],
            capsys,
        )
        assert code == cli.EXIT_CERTIFIED
        doc = json.loads(out)
        assert doc["summary"]["points_checked"] == 2
        assert doc["summary"]["pass_rate"] == "1/1"
        assert doc["summary"]["refutations"] == []
        record = doc["records"][0]
        assert record["trial"] == 0
        assert set(record["seeds"]) == {"instance", "point"}

    def test_arc_fault_is_inconclusive_not_refuted(self, monkeypatch, capsys):
        # A lift that misses the base form by t fails the residual recheck
        # of the off-branch arc.  That is an internal fault: exit 3 with the
        # reason in the record, never a traceback with exit 1.
        import cycover.cover

        lift = cycover.cover.arc_lift

        def wrong_lift(F, solved, free, N):
            lifted = lift(F, solved, free, N)
            domain = lifted.domain
            coeffs = list(lifted.coeffs)
            coeffs[1] = domain.add(coeffs[1], domain.one)
            return TruncatedSeries(domain, tuple(coeffs))

        monkeypatch.setattr(cycover.cover, "arc_lift", wrong_lift)
        code, out, _ = run_cli(
            ["campaign", "--family", "5,4,2,2", "--trials", "1",
             "--points-off", "1", "--points-on", "0", "--seed", "3"],
            capsys,
        )
        assert code == cli.EXIT_INCONCLUSIVE
        doc = json.loads(out)
        record = doc["records"][0]
        assert record["regularity"]["verdict"] == VERDICT_CERTIFIED
        assert record["verdict"] == VERDICT_INCONCLUSIVE
        assert record["reason"] == "lifted arc leaves a nonzero base residual"
        assert doc["summary"]["verdict"] == VERDICT_INCONCLUSIVE

    def test_base_degree_one_off_branch_draws_no_arcs(self, capsys):
        # Base degree 1 admits no hypertangent level off the branch, so the
        # point draws no arcs and keeps its regularity verdict, where it
        # used to end in an IndexError (exit 1).
        code, out, err = run_cli(
            ["campaign", "--family", "5,1,5,2", "--trials", "1",
             "--points-off", "1", "--points-on", "0", "--seed", "7"],
            capsys,
        )
        assert code in (cli.EXIT_CERTIFIED, cli.EXIT_INCONCLUSIVE)
        assert "Traceback" not in err
        record = json.loads(out)["records"][0]
        assert record["branch_position"] == "off"
        assert record["arc_order"] is None
        assert record["order_checks"] == []
        assert record["verdict"] == record["regularity"]["verdict"]

    def test_campaign_makes_no_generic_substitution(self, monkeypatch, capsys):
        # Localization, sampling and the rank certificate's linear cuts all
        # run without Polynomial.substitute, off the branch and on it.
        from cycover.poly import Polynomial

        calls = []
        substitute = Polynomial.substitute

        def counting(self, images):
            calls.append(self)
            return substitute(self, images)

        monkeypatch.setattr(Polynomial, "substitute", counting)
        code, out, _ = run_cli(
            ["campaign", "--family", "5,4,2,2", "--trials", "1",
             "--points-off", "1", "--points-on", "1", "--seed", "7"],
            capsys,
        )
        assert code == cli.EXIT_CERTIFIED
        cases = {r["case"] for r in json.loads(out)["records"]}
        assert cases == {"R1a", "R2"}
        assert calls == []

    def test_worker_count_does_not_change_report(self, capsys):
        argv = [
            "campaign",
            "--family",
            "5,4,2,2",
            "--trials",
            "2",
            "--points-off",
            "1",
            "--points-on",
            "0",
            "--seed",
            "4",
        ]
        _, serial, _ = run_cli(argv, capsys)
        _, parallel, _ = run_cli(argv + ["--workers", "4"], capsys)
        assert reports_equal_modulo_timings(serial, parallel)

    def test_fixed_instance_campaign(self, workhorse_file, capsys):
        code, out, _ = run_cli(
            [
                "campaign",
                workhorse_file,
                "--trials",
                "2",
                "--points-off",
                "1",
                "--points-on",
                "0",
                "--seed",
                "5",
            ],
            capsys,
        )
        assert code == cli.EXIT_CERTIFIED
        doc = json.loads(out)
        assert doc["options"]["fixed_instance"] is True
        # different trials sample different points on the same instance
        points = [tuple(r["point"]) for r in doc["records"]]
        assert len(set(points)) == 2

    def test_fixed_instance_keeps_its_field(self, tmp_path, capsys):
        # A file over GF(13) is sampled over GF(13): another --prime is bad
        # input, as it is for certify, and no prime or its own one runs.
        instance = random_instance(WORKHORSE, 5, PrimeField(13))
        path = tmp_path / "gf13.inst"
        path.write_text(default_instance_text(instance, seed=1))
        argv = ["campaign", str(path), "--trials", "1", "--points-off", "1",
                "--points-on", "0", "--seed", "2"]
        code, out, err = run_cli(argv + ["--prime", "17"], capsys)
        assert code == cli.EXIT_INPUT_ERROR
        assert out == ""
        assert "works over GF(13); it cannot be rechecked over GF(17)" in err
        code, out, _ = run_cli(argv, capsys)
        assert code == cli.EXIT_CERTIFIED
        assert json.loads(out)["options"]["prime"] == 13
        code, same, _ = run_cli(argv + ["--prime", "13"], capsys)
        assert code == cli.EXIT_CERTIFIED
        assert reports_equal_modulo_timings(out, same)

    def test_oversized_macaulay_shape_is_inconclusive(self, monkeypatch, capsys):
        # (7,5,3,2)'s square Macaulay matrix would be 33,649^2: refused from
        # the degrees alone, with neither its pivot plan, its envelope nor a
        # matrix built.
        refuse = mock.Mock(side_effect=AssertionError("built past the budget"))
        monkeypatch.setattr(regseq, "_pivot_plan", refuse)
        monkeypatch.setattr(regseq, "_macaulay_envelope", refuse)
        monkeypatch.setattr(regseq, "_macaulay_matrix", refuse)
        argv = ["campaign", "--family", "7,5,3,2", "--trials", "1",
                "--points-off", "1", "--points-on", "0", "--seed", "7"]
        code, out, _ = run_cli(argv, capsys)
        assert code == cli.EXIT_INCONCLUSIVE
        (record,) = json.loads(out)["records"]
        assert record["verdict"] == VERDICT_INCONCLUSIVE
        regularity = record["regularity"]
        assert regularity["verdict"] == VERDICT_INCONCLUSIVE
        assert "33649 x 33649 (square)" in regularity["message"]

    def test_requires_exactly_one_source(self, workhorse_file, capsys):
        code, _, err = run_cli(["campaign"], capsys)
        assert code == cli.EXIT_INPUT_ERROR
        assert "exactly one instance source" in err
        code, _, err = run_cli(
            ["campaign", workhorse_file, "--family", "5,4,2,2"], capsys
        )
        assert code == cli.EXIT_INPUT_ERROR

    def test_bad_prime_rejected_before_work(self, capsys):
        code, _, err = run_cli(
            [
                "campaign",
                "--family",
                "5,2,2,3",
                "--prime",
                "101",
                "--trials",
                "1000000",
            ],
            capsys,
        )
        assert code == cli.EXIT_INPUT_ERROR
        assert "1 mod 3" in err

    def test_on_branch_prime_at_most_mn_rejected_before_work(self, capsys):
        # On-branch sampling interpolates a resultant of degree m*n = 16 at
        # 17 nodes, which GF(13) does not have.
        code, _, err = run_cli(
            ["campaign", "--family", "5,4,2,2", "--points-on", "1", "--prime", "13"],
            capsys,
        )
        assert code == cli.EXIT_INPUT_ERROR
        assert "m*n = 16" in err
        assert "prime 13" in err
        assert "interpolation nodes" not in err

    def test_malformed_family_spec(self, capsys):
        code, _, err = run_cli(
            ["campaign", "--family", "5,4,2"], capsys
        )
        assert code == cli.EXIT_INPUT_ERROR
        assert "four integers" in err

    def test_output_flag_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            [
                "--output",
                str(target),
                "campaign",
                "--family",
                "5,4,2,2",
                "--trials",
                "1",
                "--points-off",
                "1",
                "--points-on",
                "0",
            ],
            capsys,
        )
        assert code == cli.EXIT_CERTIFIED
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "campaign"

    def test_output_flag_accepted_after_subcommand(self, tmp_path, capsys):
        # The natural spelling puts the flag last; the short form must work
        # there too, and must win over a globally supplied path.
        target = tmp_path / "trailing.json"
        decoy = tmp_path / "decoy.json"
        code, out, _ = run_cli(
            ["family", "5", "4", "2", "2", "-o", str(target)], capsys
        )
        assert code == cli.EXIT_CERTIFIED
        assert out == ""
        assert json.loads(target.read_text())["command"] == "family"
        code, out, _ = run_cli(
            [
                "--output",
                str(decoy),
                "family",
                "5",
                "4",
                "2",
                "2",
                "--output",
                str(target),
            ],
            capsys,
        )
        assert code == cli.EXIT_CERTIFIED
        assert json.loads(target.read_text())["command"] == "family"


class TestOptionValidation:
    def test_check_options_validate(self):
        with pytest.raises(ValueError, match="arc count"):
            cli.CheckOptions(arc_count=0)
        with pytest.raises(ValueError, match="truncation order"):
            cli.CheckOptions(arc_order=1)
        with pytest.raises(ValueError, match="cut trials"):
            cli.CheckOptions(cut_trials=0)

    def test_certify_options_need_a_point(self):
        with pytest.raises(ValueError, match="at least one point"):
            cli.CertifyOptions(points_off=0, points_on=0)

    def test_campaign_config_validates_prime_and_counts(self):
        family = validate_family(5, 2, 2, 3)
        with pytest.raises(ValueError, match="1 mod 3"):
            cli.CampaignConfig(family=family, prime=101)
        with pytest.raises(ValueError, match="at least one trial"):
            cli.CampaignConfig(family=WORKHORSE, prime=PRIME, trials=0)
        with pytest.raises(ValueError, match="at least one point"):
            cli.CampaignConfig(
                family=WORKHORSE, prime=PRIME, points_off=0, points_on=0
            )

    def test_campaign_config_checks_fixed_instance_family(self):
        # the quadric file describes family (5, 2, 4, 2), not the workhorse
        with pytest.raises(ValueError, match="different family"):
            cli.CampaignConfig(
                family=WORKHORSE,
                prime=PRIME,
                instance_text=QUADRIC_FILE,
                points_off=1,
                points_on=0,
            )

    def test_campaign_config_checks_fixed_instance_field(self):
        # A file over GF(13) cannot be sampled over another prime field.
        instance = random_instance(validate_family(5, 2, 2, 3), 5, PrimeField(13))
        text = default_instance_text(instance, seed=1)
        with pytest.raises(ValueError, match="works over GF\\(13\\)"):
            cli.CampaignConfig(
                family=instance.family,
                prime=31,
                instance_text=text,
                points_off=1,
                points_on=0,
            )
        config = cli.CampaignConfig(
            family=instance.family, prime=13, instance_text=text, points_off=1, points_on=0
        )
        assert config.prime == 13


class TestVerdictAggregation:
    def test_exit_codes_follow_worst_verdict(self):
        assert cli.exit_code_for(VERDICT_CERTIFIED) == 0
        assert cli.exit_code_for(VERDICT_REFUTED) == 1
        assert cli.exit_code_for(VERDICT_INCONCLUSIVE) == 3
        assert cli.exit_code_for(VERDICT_UNSUPPORTED) == 3


# Every subcommand with its positionals and flags, each with its default.
PARSER_SURFACE = {
    "family": [
        (("--output", "-o"), argparse.SUPPRESS),
        ("M", None), ("m", None), ("l", None), ("K", None),
    ],
    "bound": [
        (("--output", "-o"), argparse.SUPPRESS),
        ("M", None), ("m", None), ("l", None), ("K", None),
    ],
    "series": [
        (("--output", "-o"), argparse.SUPPRESS),
        ("K", None), ("N", None), (("--seed",), 0),
    ],
    "parse": [
        (("--output", "-o"), argparse.SUPPRESS),
        ("expression", None), (("--vars",), None), (("--prime",), None),
    ],
    "localize": [
        (("--output", "-o"), argparse.SUPPRESS),
        ("file", None), (("--point",), None), (("--prime",), None),
    ],
    "certify": [
        (("--output", "-o"), argparse.SUPPRESS),
        ("file", None), (("--point",), None), (("--points-off",), None),
        (("--points-on",), None), (("--prime",), None), (("--seed",), None),
        (("--arc-order",), None), (("--arc-count",), 5),
        (("--cut-trials",), 5), (("--gb-budget",), 200_000),
    ],
    "campaign": [
        (("--output", "-o"), argparse.SUPPRESS),
        ("file", None), (("--family",), None), (("--prime",), None),
        (("--seed",), 0), (("--trials",), 1), (("--points-off",), 3),
        (("--points-on",), 2), (("--workers",), 1),
        (("--arc-order",), None), (("--arc-count",), 5),
        (("--cut-trials",), 5), (("--gb-budget",), 200_000),
    ],
}


def _surface(parser: argparse.ArgumentParser) -> list:
    return [
        (tuple(action.option_strings) or action.dest, action.default)
        for action in parser._actions
        if action.dest != "help"
    ]


def test_parser_surface_is_pinned():
    # No flag, positional or default comes or goes unnoticed.
    parser = cli.build_parser()
    (subcommands,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert _surface(parser)[0] == (("--output", "-o"), None)
    assert {
        name: _surface(sub) for name, sub in subcommands.choices.items()
    } == PARSER_SURFACE
    assert list(subcommands.choices) == list(PARSER_SURFACE)


def test_certify_and_campaign_look_up_samplers_and_check_point_by_name(
    workhorse_file, monkeypatch
):
    # A tracer rebinds these module globals for the length of a run; a
    # caller that bound them elsewhere (a table, a default argument) would
    # bypass it without any error.
    calls = []

    def counting(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)

    for name in ("sample_point_off_branch", "sample_point_on_branch", "check_point"):
        counting(name)
    expected = [
        "sample_point_off_branch",
        "check_point",
        "sample_point_on_branch",
        "check_point",
    ]
    document = parse_instance_file(Path(workhorse_file).read_text())
    options = cli.CertifyOptions(
        points_off=1, points_on=1, checks=cli.CheckOptions(arc_count=1)
    )
    cli.run_certify(document, options)
    assert calls == expected
    calls.clear()
    config = cli.CampaignConfig(
        family=WORKHORSE, prime=PRIME, points_off=1, points_on=1,
        checks=cli.CheckOptions(arc_count=1),
    )
    cli.run_campaign(config)
    assert calls == expected
