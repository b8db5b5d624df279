"""The mutants the mutation gate (mutation_gate.py) runs, one per entry.

Each entry names a file under src/steppoly/, a snippet that occurs there
exactly once, its replacement and the test node ids that must all fail
against the mutated copy.  A snippet that no longer occurs fails the gate, so
a change that rewrites mutated code updates its entries in the same diff.  A
surviving mutant is answered with a test; an entry leaves the list only with
the code it mutates.  Mutation analysis as in R. A. DeMillo, R. J. Lipton and
F. G. Sayward, "Hints on test data selection", IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    find: str
    replace: str
    kills: tuple[str, ...]


MUTANTS = [
    Mutant(
        "abc family sum drops member n", "cdkernel.py",
        "zip(A.rows[:D], B.rows[:D])", "zip(A.rows[:n], B.rows[:n])",
        ("tests/test_cdkernel.py::TestABCCoefficients::test_passes_wherever_the_oracle_passes[table]",
         "tests/test_cdkernel.py::TestABCCoefficients::test_planted_moment_flags_every_n_from_its_corner",
         "tests/test_cli.py::TestVerify::test_all_checks_pass")),
    Mutant(
        "abc oracle border reversed", "cdkernel.py",
        "[int(m == j) for j in range(D)] for m in range(D)]",
        "[int(m + j == D - 1) for j in range(D)] for m in range(D)]",
        ("tests/test_cdkernel.py::TestABCCoefficients::test_passes_wherever_the_oracle_passes[mixed]",
         "tests/test_cdkernel.py::TestABCCoefficients::test_coefficient_beyond_column_n_fails",
         "tests/test_cli.py::TestVerify::test_all_checks_pass")),
    Mutant(
        "abc oracle drops the r_c weight", "cdkernel.py",
        "den * v * r for m, row", "den * v for m, row",
        ("tests/test_cdkernel.py::TestABCCoefficients::test_passes_wherever_the_oracle_passes[table]",
         "tests/test_cdkernel.py::TestABCCoefficients::test_report_names_each_failing_n_once",
         "tests/test_cli.py::TestVerify::test_all_checks_pass")),
    Mutant(
        "reproduction K^[n] drops member n", "cdkernel.py",
        "for a_i, b_i in zip(a, b))", "for a_i, b_i in zip(a[:n], b))",
        ("tests/test_cdkernel.py::TestReproduction::test_exact_on_random_systems",
         "tests/test_cli.py::TestVerify::test_all_checks_pass")),
    Mutant(
        "Family.values doubles the constant term", "families.py",
        "sums[i] += v * mono[K]", "sums[i] += v * mono[K] * (1 + (K == 0))",
        ("tests/test_cdkernel.py::TestKernelEval::test_table_matches_member_evaluation",
         "tests/test_cdkernel.py::TestABCCoefficients::test_detects_a_term_that_vanishes_at_the_abc_points",
         "tests/test_families.py::TestLazyRows::test_eval_builds_only_its_member")),
    Mutant(
        "Family.eval reads the member below", "families.py",
        "[self.rows[n]]", "[self.rows[n - 1]]",
        ("tests/test_families.py::TestLazyRows::test_eval_builds_only_its_member",
         "tests/test_families.py::TestLazyRows::test_quick_start_readers_on_rows_built_on_read",
         "tests/test_cdkernel.py::TestKernelEval::test_table_matches_member_evaluation")),
    Mutant(
        "monomial_ints swaps x1 and x2", "families.py",
        "(a * e) ** (i - j) * (c * b) ** j", "(a * e) ** j * (c * b) ** (i - j)",
        ("tests/test_families.py::TestMonomialTable::test_integers_over_one_denominator_are_the_monomials",
         "tests/test_cdkernel.py::TestKernelEval::test_table_matches_member_evaluation",
         "tests/test_acceptance.py::test_criterion_8_cli_contract")),
    Mutant(
        "kernel_eval border drops the r_m weight", "cdkernel.py",
        "border[m % q] = r_m * Y[m // q]", "border[m % q] = Y[m // q]",
        ("tests/test_cdkernel.py::TestKernelEval::test_inverse_moment_form_matches_both_oracles[table]",
         "tests/test_cli.py::TestKernel::test_value_matches_library",
         "tests/test_acceptance.py::test_criterion_8_cli_contract")),
    Mutant(
        "CDBlocks.tgt_rows drops its last row", "cdkernel.py",
        "self.tgt_rows = range(n + 1, n_plus(n, p, k) + 1)",
        "self.tgt_rows = range(n + 1, n_plus(n, p, k))",
        ("tests/test_cdkernel.py::TestCDBlocks::test_index_ranges",
         "tests/test_cdkernel.py::TestCDFromRecurrences::test_planted_out_of_band_block_entry_fails_through_the_index_identity",
         "tests/test_recurrence.py::TestFailureText::test_first_violation_details",
         "tests/test_cli.py::TestVerify::test_all_checks_pass")),
    Mutant(
        "CDBlocks.tgt_cols drops its first column", "cdkernel.py",
        "self.tgt_cols = range(n_minus_big(n + 1, p, k), n + 1)",
        "self.tgt_cols = range(n_minus_big(n + 1, p, k) + 1, n + 1)",
        ("tests/test_cdkernel.py::TestCDBlocks::test_index_ranges",
         "tests/test_cdkernel.py::TestCDFromRecurrences::test_planted_out_of_band_block_entry_fails_through_the_index_identity",
         "tests/test_recurrence.py::TestFailureText::test_first_violation_details",
         "tests/test_cli.py::TestVerify::test_all_checks_pass")),
    Mutant(
        "CDBlocks.src_rows drops its first row", "cdkernel.py",
        "self.src_rows = range(n_minus_big(n + 1, q, k), n + 1)",
        "self.src_rows = range(n_minus_big(n + 1, q, k) + 1, n + 1)",
        ("tests/test_cdkernel.py::TestCDBlocks::test_index_ranges",
         "tests/test_cdkernel.py::TestCDFromRecurrences::test_planted_out_of_band_block_entry_fails_through_the_index_identity",
         "tests/test_recurrence.py::TestFailureText::test_first_violation_details",
         "tests/test_cli.py::TestVerify::test_all_checks_pass")),
    Mutant(
        "CDBlocks.src_cols drops its last column", "cdkernel.py",
        "self.src_cols = range(n + 1, n_plus(n, q, k) + 1)",
        "self.src_cols = range(n + 1, n_plus(n, q, k))",
        ("tests/test_cdkernel.py::TestCDBlocks::test_index_ranges",
         "tests/test_cdkernel.py::TestCDFromRecurrences::test_planted_out_of_band_block_entry_fails_through_the_index_identity",
         "tests/test_recurrence.py::TestFailureText::test_first_violation_details",
         "tests/test_cli.py::TestVerify::test_all_checks_pass")),
]
