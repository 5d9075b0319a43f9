"""Mutation gate: every seeded mutant must fail each of the tests named for it.

Usage: ``python tools/mutants.py`` (no flags; standard library and pytest).

Each entry in ``MUTANTS`` names a file, an exact old text, the new text that
replaces it, and the pytest node ids that must fail once it is replaced.
The tree is copied to a temporary directory; the named tests are first run
on the unmutated copy, where every one must pass, and then each mutant is
applied to its own fresh copy and its named tests run there.  A mutant is
killed when every test named for it fails (a test the mutant keeps from
being collected counts as failing), and a survivor is reported with the
named tests that passed.  An old text that does not occur exactly once
in its file, or a named test whose function is not defined, is an error,
not a skip: the entry is stale and must be brought up to date with the
code it mutates.  ``stale_entries`` makes that check alone, in well under a
second, and the test suite runs it.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when an
entry is stale, a named test is not run, or a named test fails unmutated.
The gate is slower than a unit test and is not part of the test suite.
"""

from __future__ import annotations

import ast
import functools
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(
    ".git", ".perfbench-work", ".pytest_cache", ".hypothesis", ".benchmarks", "__pycache__"
)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


HARNESS = "src/zsindex/harness.py"
ORBIT = "tests/test_harness.py::TestOrbitCanonical::"
COUNT = ORBIT + "test_orbit_block_count"
SEARCH = "tests/test_harness.py::TestSearchHighIndex::"
TIES = ORBIT + "test_block_one_tie_test_matches_stabilizer"
REPS = ORBIT + "test_orbit_reps_match_naive_oracle_block_by_block"
KERNEL = ORBIT + "test_block_one_kernel_matches_the_generic_pair"
DISTINCT = ORBIT + "test_block_one_kernel_counts_each_distinct_term_once"
MINIMAL = "tests/test_sequences.py::TestMinimality::"
INDEX = "tests/test_sequences.py::TestIndex::"
RESUME = "tests/test_harness.py::TestCheckpointResume::"
WITNESS = "src/zsindex/witness.py"
FIND = "tests/test_witness.py::TestFindWitness::"
STAGE = "tests/test_witness.py::test_form_stage_answers_for_its_input"
CARRY = "    carried = certify(s, found.m * u, "
# The unit case of the orbit blocks' admission test, from its first
# comparison with b to its last.
CLEAR_CHECKS = """\
            if ix < b:
                return False
            for y in held:
                if ix * y % n < b:
                    return False
        for y in held:
            iy = inverse[y]
            if iy and iy * x % n < b:
"""

MUTANTS = [
    Mutant(
        "floor compares with > instead of >=",
        HARNESS,
        "        return gcds[x] >= d\n",
        "        return gcds[x] > d\n",
        (
            ORBIT + "test_floor_blocks_match_naive_oracle[4-60]",
            ORBIT + "test_orbit_reps_floor_each_divisor_block",
            COUNT + "[385-5-23754-1590-432]",
            "tests/test_harness.py::test_golden_orbit_histogram[77]",
        ),
    ),
    Mutant(
        "floor admits every term",
        HARNESS,
        "        return gcds[x] >= d\n",
        "        return True\n",
        (
            ORBIT + "test_floor_blocks_match_naive_oracle[4-60]",
            COUNT + "[385-5-23754-1590-432]",
            COUNT + "[385-7-23381-537-183]",
        ),
    ),
    Mutant(
        "closing filter leaves the forced term below the closing one unchecked",
        HARNESS,
        "if keep(u, held) and keep(rest - u, held + (u,))]",
        "if keep(u, held)]",
        (
            ORBIT + "test_floor_blocks_match_naive_oracle[4-60]",
            COUNT + "[385-5-23754-1590-432]",
            COUNT + "[77-1-950-331-318]",
        ),
    ),
    Mutant(
        "leastness test never rejects",
        HARNESS,
        "            if image < target:\n                return 0\n",
        "",
        (
            ORBIT + "test_stabilizer_size_matches_oracle[4-60]",
            COUNT + "[77-1-950-331-318]",
            "tests/test_harness.py::test_golden_orbit_histogram[77]",
        ),
    ),
    Mutant(
        "stabilizer leaves the identity uncounted",
        HARNESS,
        "    fixed = 1  # the identity\n",
        "    fixed = 0  # the identity\n",
        (
            ORBIT + "test_stabilizer_size_matches_oracle[4-60]",
            ORBIT + "test_orbits_total_counts_naive_classes",
        ),
    ),
    Mutant(
        "stabilizer counts the identity twice",
        HARNESS,
        "            if m == 1:\n                continue\n",
        "",
        (
            ORBIT + "test_stabilizer_size_matches_oracle[4-60]",
            ORBIT + "test_orbits_total_counts_naive_classes",
            "tests/test_cli.py::TestVerifyCommand::test_three_prime_orbit_report_is_pinned",
        ),
    ),
    Mutant(
        "lifts in descending order",
        "src/zsindex/residues.py",
        "tuple(map(tuple, lifts))",
        "tuple(tuple(reversed(lift)) for lift in lifts)",
        # Since the lead image went, no caller reads the order of a lift
        # list: the table's own test is the one that sees it.
        ("tests/test_residues.py::TestLiftTable::test_matches_brute_force",),
    ),
    Mutant(
        "unit test refuses at <= b instead of < b",
        HARNESS,
        CLEAR_CHECKS,
        CLEAR_CHECKS.replace("< b", "<= b"),
        (
            ORBIT + "test_block_one_prune_keeps_every_least_member[4-60]",
            COUNT + "[77-1-950-331-318]",
            # Block 1 at k = 4 runs its kernel, so the sweep is read at k = 5.
            REPS + "[5-60]",
        ),
    ),
    Mutant(
        "unit test drops its x^-1 * y check",
        HARNESS,
        "            for y in held:\n"
        "                if ix * y % n < b:\n                    return False\n",
        "",
        (
            COUNT + "[77-1-950-331-318]",
            COUNT + "[997-1-165170-41516-41417]",
            COUNT + "[385-1-24512-9940-9731]",
        ),
    ),
    Mutant(
        "unit test drops its y^-1 * x check",
        HARNESS,
        "        for y in held:\n            iy = inverse[y]\n"
        "            if iy and iy * x % n < b:\n                return False\n",
        "",
        (
            COUNT + "[77-1-950-331-318]",
            COUNT + "[997-1-165170-41516-41417]",
            COUNT + "[385-1-24512-9940-9731]",
        ),
    ),
    Mutant(
        "block-1 leastness test skips every unit term",
        HARNESS,
        "            if t > 1 and gcds[t] == 1 and t * b % n in present:\n",
        "            if False:\n",
        (
            TIES + "[4-60]",
            ORBIT + "test_block_one_prune_keeps_every_least_member[4-60]",
            REPS + "[3-60]",
            REPS + "[5-60]",
        ),
    ),
    Mutant(
        "block-1 leastness test rejects a tied image equal to the terms",
        HARNESS,
        "                if image < terms:\n",
        "                if image <= terms:\n",
        (
            TIES + "[4-60]",
            TIES + "[5-60]",
            ORBIT + "test_block_one_tie_test_named_cases[8-terms1-2]",
            ORBIT + "test_block_one_tie_test_named_cases[8-terms7-2]",
        ),
    ),
    Mutant(
        "block-1 kernel drops its w-by-b^-1 check",
        HARNESS,
        "                or ib and ib * w % n < b\n",
        "",
        (
            KERNEL,
            ORBIT + "test_prime_orbit_report_is_pinned",
            "tests/test_harness.py::test_golden_orbit_histogram[77]",
            "tests/test_cli.py::TestVerifyCommand::test_three_prime_orbit_report_is_pinned",
        ),
    ),
    Mutant(
        "block-1 kernel lets a closing term that closes a zero sum through",
        HARNESS,
        "            if u in grown:\n                continue\n",
        "",
        (
            KERNEL,
            ORBIT + "test_prime_orbit_report_is_pinned",
            "tests/test_harness.py::test_golden_orbit_histogram[77]",
        ),
    ),
    Mutant(
        "block-1 kernel counts a repeated unit term twice",
        HARNESS,
        "{b: ib, u: iu, w: iw}.items()",
        "((b, ib), (u, iu), (w, iw))",
        (
            KERNEL,
            DISTINCT + "[terms0]",
            ORBIT + "test_orbits_total_counts_naive_classes",
            "tests/test_harness.py::test_golden_pool_sweep",
        ),
    ),
    Mutant(
        "block-1 kernel rejects a tied image equal to the tuple",
        HARNESS,
        "                        if image < quad:\n",
        "                        if image <= quad:\n",
        (
            KERNEL,
            DISTINCT + "[terms0]",
            DISTINCT + "[terms1]",
            "tests/test_harness.py::test_golden_orbit_histogram[77]",
            "tests/test_cli.py::TestVerifyCommand::test_three_prime_orbit_report_is_pinned",
        ),
    ),
    Mutant(
        "block-1 kernel never looks for a tie on the forced term",
        HARNESS,
        " or iw and w * b % n in quad:",
        ":",
        (
            KERNEL,
            ORBIT + "test_prime_orbit_report_is_pinned",
            "tests/test_harness.py::test_golden_orbit_histogram[77]",
            "tests/test_harness.py::test_golden_pool_sweep",
        ),
    ),
    Mutant(
        "blocks d > 1 paired with block 1's tie test",
        HARNESS,
        "        return floor, lambda terms: _representative_stabilizer(terms, n)\n",
        "        return floor, ties\n",
        (
            REPS + "[4-60]",
            COUNT + "[385-5-23754-1590-432]",
            "tests/test_harness.py::test_golden_orbit_histogram[77]",
        ),
    ),
    Mutant(
        "orbit test picker gives block 2 block 1's pair",
        HARNESS,
        "    if d > 1:\n        return floor",
        "    if d > 2:\n        return floor",
        (
            REPS + "[4-60]",
            ORBIT + "test_floor_blocks_match_naive_oracle[4-60]",
            SEARCH + "test_finding_counts_are_pinned[60-4-416-60]",
        ),
    ),
    Mutant(
        "k = 4 minimality kernel drops (b + c) % n",
        "src/zsindex/sequences.py",
        " and (b + c) % n",
        "",
        (
            MINIMAL + "test_zero_sum_pair_breaks_minimality",
            MINIMAL + "test_agrees_with_oracle_small",
            "tests/test_witness.py::TestFindWitness::test_precondition_errors",
        ),
    ),
    Mutant(
        "the minimality walk leaves out each term on its own",
        "src/zsindex/sequences.py",
        "        reached |= (moved | moved >> n) & full | 1 << t\n",
        "        reached |= (moved | moved >> n) & full\n",
        (
            MINIMAL + "test_zero_element_in_longer_sequence_is_not",
            MINIMAL + "test_agrees_with_oracle_small",
            MINIMAL + "test_long_sequences",
        ),
    ),
    Mutant(
        "min_transform_sum breaks ties toward the larger unit",
        "src/zsindex/sequences.py",
        "        if total < best or not best_m:\n",
        "        if total <= best or not best_m:\n",
        (
            INDEX + "test_worked_argmin",
            INDEX + "test_kernel_matches_oracle_exhaustive",
        ),
    ),
    Mutant(
        "a sweep's tally adds a block logged twice twice",
        HARNESS,
        "        if block.n1 in self.done:\n            return\n",
        "",
        (RESUME + "test_a_log_holding_every_block_twice_counts_each_once",),
    ),
    Mutant(
        "the checkpoint loader takes a bool for an int count",
        HARNESS,
        "and type(sequences) is int and type(reps) is int",
        "and isinstance(sequences, int) and isinstance(reps, int)",
        (RESUME + "test_malformed_record_is_refused[count_is_a_bool]",),
    ),
    Mutant(
        "a fault's column runs past its line",
        HARNESS,
        "min(exc.pos, len(text) - 1)",
        "exc.pos",
        (RESUME + "test_a_fault_at_a_line_end_names_that_line",),
    ),
    Mutant(
        "a report's histogram keeps its blocks' arrival order",
        HARNESS,
        "rule_histogram=dict(sorted(tally.histogram.items())),",
        "rule_histogram=dict(tally.histogram),",
        ("tests/test_harness.py::test_a_pooled_run_reports_the_serial_histogram_order",),
    ),
    Mutant(
        "a carried hit skips the recomputation on its own terms",
        WITNESS,
        CARRY,
        "    carried = Witness(found.m * u % s.n, s.n, ",
        (FIND + "test_a_carried_hit_is_certified_on_its_own_terms",),
    ),
    Mutant(
        "a carried hit's multiplier leaves out u",
        WITNESS,
        CARRY,
        "    carried = certify(s, found.m, ",
        (
            FIND + "test_worked_transported_case",
            FIND + "test_a_carried_result_keeps_the_minimality_precondition",
            "tests/test_witness.py::test_golden_witness_provenance[45]",
            "tests/test_harness.py::test_the_witness_command_prints_what_the_sweep_counted[35]",
            # k = 5 takes the same transport as k = 4.
            "tests/test_harness.py::TestVerifyConjecture::test_generic_k_high_index_branch[11]",
        ),
    ),
    Mutant(
        "every length takes the unit scan",
        WITNESS,
        "_pipeline(s) if len(terms) == 4 else _exhaustive(s)",
        "_exhaustive(s)",
        ("tests/test_harness.py::test_golden_rule_histogram[35]",),
    ),
    Mutant(
        "a lopsided quadruple's scan certifies under EXHAUSTIVE",
        WITNESS,
        "_exhaustive(s, RULE_ONE_SIDED)",
        "_exhaustive(s)",
        (
            FIND + "test_lopsided_input_skips_the_form_stages",
            "tests/test_harness.py::test_golden_rule_histogram[35]",
        ),
    ),
    Mutant(
        "a lopsided quadruple is scanned twice",
        WITNESS,
        "return _exhaustive(s, RULE_ONE_SIDED)",
        "return (_exhaustive(s), _exhaustive(s, RULE_ONE_SIDED))[1]",
        (FIND + "test_lopsided_input_skips_the_form_stages",),
    ),
    Mutant(
        "the transport skips the minimality test",
        WITNESS,
        "    if not is_minimal_zero_sum(s):\n",
        "    if found is None and not is_minimal_zero_sum(s):\n",
        (
            FIND + "test_precondition_errors_with_a_carried_result",
            FIND + "test_a_carried_result_keeps_the_minimality_precondition",
        ),
    ),
    Mutant(
        "orbit members carry u^-1 in place of u",
        HARNESS,
        "zip(map(tuple, map(sorted, images)), unit_list)",
        "zip(map(tuple, map(sorted, images)), inverses)",
        (
            "tests/test_witness.py::TestLeadImage::test_matches_oracle_on_every_minimal_tuple[4]",
            "tests/test_harness.py::test_golden_rule_histogram[35]",
            "tests/test_harness.py::test_the_witness_command_prints_what_the_sweep_counted[35]",
        ),
    ),
    Mutant(
        "orbit images are built over the units, not their inverses",
        HARNESS,
        "[[v * t % n for v in inverses] for t in rep]",
        "[[v * t % n for v in unit_list] for t in rep]",
        (
            "tests/test_witness.py::TestLeadImage::test_matches_oracle_on_every_minimal_tuple[4]",
            "tests/test_harness.py::test_golden_rule_histogram[35]",
            "tests/test_harness.py::test_the_witness_command_prints_what_the_sweep_counted[35]",
        ),
    ),
    Mutant(
        "the orbit-size check is dropped",
        HARNESS,
        "    if len(first) * fixed != len(unit_list):\n",
        "    if False:\n",
        (SEARCH + "test_orbit_size_mismatch_raises",),
    ),
    Mutant(
        "the interval stage certifies m without nf.unit",
        WITNESS,
        "certify(s, m * nf.unit, RULE_INTERVAL,",
        "certify(s, m, RULE_INTERVAL,",
        (
            STAGE + "[interval_witness]",
            FIND + "test_worked_pipeline_case",
            "tests/test_witness.py::test_golden_witness_provenance[45]",
        ),
    ),
    Mutant(
        "the two-of-three stage drops nf.steps from its trail",
        WITNESS,
        "RULE_TWO_OF_THREE, trail=nf.steps)",
        "RULE_TWO_OF_THREE)",
        (
            STAGE + "[two_of_three_witness]",
            "tests/test_witness.py::test_golden_witness_provenance[45]",
        ),
    ),
    Mutant(
        "orbits are expanded over every unit but the last",
        HARNESS,
        "zip(map(tuple, map(sorted, images)), unit_list)",
        "zip(map(tuple, map(sorted, images)), unit_list[:-1])",
        (
            SEARCH + "test_full_search_matches_naive_oracle[4-30]",
            SEARCH + "test_n10_includes_literal_example",
            SEARCH + "test_finding_counts_are_pinned[60-4-416-60]",
        ),
    ),
    Mutant(
        "full search returns the representatives unexpanded",
        HARNESS,
        "        orbit = ((rep, 1),) if orbits else _orbit_members(rep, modulus, fixed)\n",
        "        orbit = ((rep, 1),)\n",
        (
            SEARCH + "test_full_search_matches_naive_oracle[4-30]",
            SEARCH + "test_n10_includes_literal_example",
            SEARCH + "test_finding_counts_are_pinned[48-4-116-25]",
        ),
    ),
    Mutant(
        "least image compares unsorted images",
        HARNESS,
        "tuple(sorted([(u * t - 1) % n + 1 for t in terms]))",
        "tuple([(u * t - 1) % n + 1 for t in terms])",
        (
            ORBIT + "test_worked_example",
            ORBIT + "test_kernel_matches_oracle_on_every_minimal_tuple[4]",
            ORBIT + "test_kernel_matches_oracle_with_zero_term",
        ),
    ),
    Mutant(
        "witness carries u^-1 in place of u",
        "src/zsindex/cli.py",
        "find_witness(Sequence(s.modulus, rep)), u)",
        "find_witness(Sequence(s.modulus, rep)), pow(u, -1, s.n))",
        ("tests/test_harness.py::test_the_witness_command_prints_what_the_sweep_counted[35]",),
    ),
    Mutant(
        "search keeps index-1 orbits",
        HARNESS,
        "        if min_sum <= modulus:\n",
        "        if min_sum < modulus:\n",
        (
            SEARCH + "test_full_search_matches_naive_oracle[3-30]",
            SEARCH + "test_full_search_matches_naive_oracle[4-30]",
            SEARCH + "test_clean_modulus",
        ),
    ),
]
# Known equivalent mutants, which no output test can kill and which are
# therefore not seeded: the leastness test scanning every lift and
# returning 0 only at the end (only slower), block 1's leastness test
# comparing every unit term's image, tied or not, and its k = 4 kernel
# doing so with no tie check first (only slower: an untied image sorts
# above the terms), and ``stop_at=None`` in
# ``one_sided_witness`` (at index 1 the minimum is n, and its least argmin
# is the first certifying unit).  The two-of-three stage certifying M
# without nf.unit is not seeded either, though it is not equivalent: the
# pipeline's forms carry unit 1 or n - 1 and the stage tries both M and
# n - M, so only the mul:v inputs of test_form_stage_answers_for_its_input
# tell it apart.


def junit_id(node: str) -> str:
    """The JUnit report's id for a node id: dotted module and classes, ``::``, name."""
    path, *scopes, name = node.split("::")
    module = path.removesuffix(".py").replace("/", ".")
    return ".".join([module, *scopes]) + "::" + name


def run_tests(tree: Path, tests: list[str]) -> dict[str, bool]:
    """Run the named tests in a copy of the tree: whether each failed, by node id."""
    report = tree / "mutants-junit.xml"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--junitxml={report}", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    failed = {}
    if report.exists():
        for case in ET.parse(report).getroot().iter("testcase"):
            key = f"{case.get('classname')}::{case.get('name')}"
            failed[key] = any(child.tag in ("failure", "error") for child in case)
    return {node: failed[junit_id(node)] for node in tests if junit_id(node) in failed}


def copy_tree(scratch: Path, name: str) -> Path:
    tree = scratch / name
    shutil.copytree(ROOT, tree, ignore=SKIP)
    return tree


@functools.lru_cache(maxsize=None)
def _module_body(path: str) -> list[ast.stmt]:
    return ast.parse((ROOT / path).read_text()).body


def defines(path: str, scopes: list[str]) -> bool:
    """Whether the file defines the function at the end of the class path ``scopes``."""
    body = _module_body(path)
    *classes, name = scopes
    for scope in classes:
        found = [node for node in body if isinstance(node, ast.ClassDef) and node.name == scope]
        if not found:
            return False
        body = found[0].body
    return any(isinstance(node, ast.FunctionDef) and node.name == name for node in body)


def stale_entries() -> list[str]:
    """One line per entry whose old text is not in its file exactly once, and
    per named test whose function is not defined (its parameters unchecked)."""
    lines = []
    for mutant in MUTANTS:
        count = (ROOT / mutant.path).read_text().count(mutant.old)
        if count != 1:
            lines.append(f"{mutant.name}: old text found {count} times in {mutant.path}")
    for test in sorted({test for mutant in MUTANTS for test in mutant.tests}):
        path, *scopes = test.split("[")[0].split("::")
        if not defines(path, scopes):
            lines.append(f"{test}: no such test function")
    return lines


def main() -> int:
    stale = stale_entries()
    for line in stale:
        print(f"STALE     {line}")
    if stale:
        return 2
    named = sorted({test for mutant in MUTANTS for test in mutant.tests})
    with tempfile.TemporaryDirectory(prefix="zsindex-mutants-") as scratch:
        clean = run_tests(copy_tree(Path(scratch), "clean"), named)
        missing = [test for test in named if test not in clean]
        broken = [test for test in named if clean.get(test)]
        for test in missing:
            print(f"NOT RUN   {test}")
        for test in broken:
            print(f"FAILS     {test} on the unmutated tree")
        if missing or broken:
            return 2
        print(f"clean     all {len(named)} named tests pass on the unmutated tree")
        survivors = 0
        for i, mutant in enumerate(MUTANTS):
            tree = copy_tree(Path(scratch), f"mutant{i}")
            target = tree / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
            result = run_tests(tree, list(mutant.tests))
            passed = [test for test in mutant.tests if not result.get(test, True)]
            if passed:
                survivors += 1
                print(f"SURVIVED  {mutant.name}: passes {', '.join(passed)}")
            else:
                print(f"killed    {mutant.name}: all {len(mutant.tests)} named tests fail")
            shutil.rmtree(tree)
    killed = len(MUTANTS) - survivors
    print(f"{len(MUTANTS)} mutants, {killed} killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
