"""Fixed-seed reports compared with copies committed under ``tests/data``.

Each committed file is a report with its timing keys stripped
(``report.without_timings``).  Any change to a verdict, seed, count,
point or digest shows up here; a refactoring must leave both unchanged.

To rewrite named copies after an intended change of output:
``PYTHONPATH=src python tests/test_golden.py NAME...``, where each NAME is
a file name under ``tests/data`` listed in ``GOLDEN``.  Only the named
copies are rewritten, so a golden that changed by accident is never
overwritten along with the intended ones.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from cycover import cli
from cycover.cover import default_prime, random_instance
from cycover.family import validate_family
from cycover.poly import PrimeField
from cycover.report import without_timings
from helpers import default_instance_text

DATA = Path(__file__).parent / "data"
WORKHORSE = validate_family(5, 4, 2, 2)

CAMPAIGN_ARGS = [
    "campaign", "--family", "5,4,2,2", "--trials", "1",
    "--points-off", "1", "--points-on", "1", "--seed", "7",
]
# The instance of the ``workhorse_file`` fixture in test_cli.py.
CERTIFY_ARGS = ["certify", "{file}", "--points-off", "1", "--points-on", "0"]
# Over Q at an explicit off-branch point whose pivot coordinate is 2, so
# localization works with non-integral Fractions.
RATIONAL_CERTIFY_ARGS = [
    "certify", "{data}/rational-5422.inst", "--point", "2,1,-1,1,0,3,1",
]
# Out of grevlex order, with repeated and cancelling monomials, negative and
# fractional coefficients, a negative leading term and a product of sums.
PARSE_EXPRESSION = (
    "z - 3/4*x*y + 2*y^2*z - x^3 + 5/6*x*y + y^2*z + x^3 - 7"
    " + 1/2*z^2*x - 2/3 - 2*x^2*y*z + (x - 1/2)*(y + 3) - 4*y^2*z"
)
PARSE_ARGS = ["parse", PARSE_EXPRESSION, "--vars", "x,y,z"]
# K = 3: cube roots off the branch, and an on-branch lift in u = t^3.
CUBE_CAMPAIGN_ARGS = [
    "campaign", "--family", "5,2,2,3", "--trials", "1",
    "--points-off", "1", "--points-on", "1", "--seed", "7",
]
# A family whose off-branch sequence takes the R1b shape.
R1B_CAMPAIGN_ARGS = [
    "campaign", "--family", "5,4,1,3", "--trials", "1",
    "--points-off", "1", "--points-on", "0", "--seed", "7",
]

# The two extremes of a series slot width over GF(p): a small prime with an
# on-branch lift, and the Mersenne prime 2^61 - 1.
SMALL_PRIME_CAMPAIGN_ARGS = [
    "campaign", "--family", "5,4,2,2", "--trials", "1",
    "--points-off", "1", "--points-on", "1", "--seed", "3", "--prime", "17",
]
LARGE_PRIME_CAMPAIGN_ARGS = [
    "campaign", "--family", "5,4,2,2", "--trials", "1",
    "--points-off", "1", "--points-on", "0", "--seed", "3",
    "--prime", "2305843009213693951",
]
# K = 3 over GF(13), where only a third of the nonzero residues are cubes:
# three on-branch point-checks per trial, each drawing five arcs.
CUBE_SMALL_PRIME_CAMPAIGN_ARGS = [
    "campaign", "--family", "5,2,2,3", "--trials", "2",
    "--points-off", "0", "--points-on", "3", "--prime", "13", "--seed", "2",
]
# Over GF(5), trial 6 point 2 has a prefix whose generic cuts all fail,
# although its Groebner dimension is the expected one, which certifies it.
GF5_CAMPAIGN_ARGS = [
    "campaign", "--family", "5,4,2,2", "--trials", "8",
    "--points-off", "3", "--points-on", "0", "--prime", "5", "--seed", "1",
]
# Over GF(17), a prefix whose Groebner dimension exceeds the expected one,
# which proves the refutation.
GF17_REFUTED_CAMPAIGN_ARGS = [
    "campaign", "--family", "5,4,2,2", "--trials", "2",
    "--points-off", "1", "--points-on", "1", "--prime", "17", "--seed", "5",
]

# Over GF(3) the regularity sequence reaches degree N = 3 = p, where
# K·i is not invertible for every i ≤ N, so the root pieces Φ_i cannot be
# reduced mod p on every step.
GF3_CAMPAIGN_ARGS = [
    "campaign", "--family", "5,4,2,2", "--trials", "1",
    "--points-off", "2", "--points-on", "0", "--prime", "3", "--seed", "4",
]

# A campaign over a fixed instance file over Q, reduced mod the default
# prime: twenty tasks that all check the same instance.
FIXED_INSTANCE_CAMPAIGN_ARGS = [
    "campaign", "{data}/rational-5422.inst", "--trials", "4",
    "--points-off", "3", "--points-on", "2", "--seed", "3",
]

GOLDEN = {
    "campaign-5422-seed7.json": CAMPAIGN_ARGS,
    "campaign-5223-seed7.json": CUBE_CAMPAIGN_ARGS,
    "campaign-5413-seed7.json": R1B_CAMPAIGN_ARGS,
    "certify-workhorse-off.json": CERTIFY_ARGS,
    "certify-rational-off.json": RATIONAL_CERTIFY_ARGS,
    "parse-rational.json": PARSE_ARGS,
    "parse-prime-101.json": PARSE_ARGS + ["--prime", "101"],
    "campaign-5422-p17-seed3.json": SMALL_PRIME_CAMPAIGN_ARGS,
    "campaign-5422-p2e61-seed3.json": LARGE_PRIME_CAMPAIGN_ARGS,
    "campaign-5223-p13-seed2.json": CUBE_SMALL_PRIME_CAMPAIGN_ARGS,
    "campaign-5422-p5-seed1.json": GF5_CAMPAIGN_ARGS,
    "campaign-5422-p17-seed5.json": GF17_REFUTED_CAMPAIGN_ARGS,
    "campaign-5422-p3-seed4.json": GF3_CAMPAIGN_ARGS,
    "campaign-rational-5422-seed3.json": FIXED_INSTANCE_CAMPAIGN_ARGS,
}
# Exit codes other than EXIT_CERTIFIED; every run is checked against its own.
EXIT_CODES = {
    "campaign-5422-p17-seed5.json": cli.EXIT_REFUTED,
}


def workhorse_text() -> str:
    instance = random_instance(WORKHORSE, 42, PrimeField(default_prime(WORKHORSE)))
    return default_instance_text(instance, seed=11)


def stripped_report(name: str, directory: Path) -> str:
    """Run the CLI for a named golden, check its exit code, and render its
    report without the timing keys."""
    instance_file = directory / "workhorse.inst"
    instance_file.write_text(workhorse_text())
    output = directory / "report.json"
    argv = [arg.format(file=instance_file, data=DATA) for arg in GOLDEN[name]]
    argv += ["--output", str(output)]
    assert cli.main(argv) == EXIT_CODES.get(name, cli.EXIT_CERTIFIED)
    return json.dumps(without_timings(json.loads(output.read_text())), indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden(name, tmp_path):
    expected = (DATA / name).read_text()
    assert stripped_report(name, tmp_path) == expected


def test_fixed_instance_campaign_parses_its_file_at_most_three_times(
    tmp_path, monkeypatch
):
    # The command reads the file and the config checks its family; the
    # tasks then share one parsed instance instead of parsing it each.
    from cycover import parsing

    texts = []
    original = parsing.parse_instance_file

    def counting(text):
        texts.append(text)
        return original(text)

    monkeypatch.setattr(parsing, "parse_instance_file", counting)
    monkeypatch.setattr(cli, "parse_instance_file", counting)
    name = "campaign-rational-5422-seed3.json"
    assert stripped_report(name, tmp_path) == (DATA / name).read_text()
    assert 1 <= len(texts) <= 3


@pytest.mark.parametrize(
    "name", ["campaign-5422-seed7.json", "campaign-5422-p5-seed1.json"]
)
def test_sampled_sequences_certify_every_prefix_on_its_own(name, tmp_path, monkeypatch):
    # A certified whole sequence certifies its prefixes with no draws of
    # their own (a homogeneous system of parameters is a regular sequence,
    # and so is each prefix): each prefix, checked as a sequence of its
    # own, must be certified too.
    from cycover.regseq import regular_at_origin

    checked = []
    original = cli.verify_regularity

    def recording(case, **options):
        verdict = original(case, **options)
        checked.append((case.members, options, verdict))
        return verdict

    monkeypatch.setattr(cli, "verify_regularity", recording)
    assert stripped_report(name, tmp_path) == (DATA / name).read_text()
    assert checked
    for members, options, verdict in checked:
        assert verdict.certified
        for i in range(1, len(members)):
            alone = regular_at_origin(
                list(members[:i]), trials=options["trials"], seed=options["seed"]
            )
            assert alone.certified, (i, alone.message)
        implied = [record.prefix for record in verdict.evidence if not record.trials]
        assert implied in ([], list(range(1, len(members))))


def test_refuted_campaign_draws_its_zero_cut_prefix_once(tmp_path, monkeypatch):
    # The refuted on-branch sequence has as many members as variables, so
    # its top prefix gets no cuts and every draw would rank one matrix.
    from cycover import regseq

    draws = []
    original = regseq._certify_isolated_homogeneous

    def counting(gens, ring):
        decision = original(gens, ring)
        draws.append(decision)
        return decision

    monkeypatch.setattr(regseq, "_certify_isolated_homogeneous", counting)
    name = "campaign-5422-p17-seed5.json"
    assert stripped_report(name, tmp_path) == (DATA / name).read_text()
    # Each of the three certified sequences takes one draw of its whole;
    # the refuted one takes its single zero-cut draw and one for each of
    # its five shorter prefixes.  Walking every prefix, with five draws for
    # the zero-cut one, took 29.
    assert len(draws) == 9


def main(names) -> int:
    unknown = [name for name in names if name not in GOLDEN]
    if not names or unknown:
        if unknown:
            print(f"unknown golden: {', '.join(unknown)}", file=sys.stderr)
        print(
            "usage: test_golden.py NAME...; names: " + " ".join(sorted(GOLDEN)),
            file=sys.stderr,
        )
        return 2
    DATA.mkdir(exist_ok=True)
    for name in names:
        with tempfile.TemporaryDirectory() as scratch:
            (DATA / name).write_text(stripped_report(name, Path(scratch)))
        print(f"wrote {DATA / name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
