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
        "reproduction skips the diagonal's delta", "cdkernel.py",
        "if (e := num - den * (i == j))", "if (e := num)",
        ("tests/test_cdkernel.py::TestReproduction::test_exact_on_random_systems",
         "tests/test_cdkernel.py::TestReproduction::test_empty_pair_list_checks_nothing",
         "tests/test_cli.py::TestVerify::test_all_checks_pass")),
    Mutant(
        "combine drops the weight's lcm factor", "families.py",
        "f = w * (den // d)", "f = w",
        ("tests/test_families.py::TestCombine::test_weights_over_the_lcm",
         "tests/test_cdkernel.py::TestABCCoefficients::test_passes_wherever_the_oracle_passes[mixed]",
         "tests/test_cdkernel.py::TestProjection::test_exact_at_threshold",
         "tests/test_recurrence.py::TestRelations::test_coefficient_space_identity",
         "tests/test_cli.py::TestVerify::test_all_checks_pass")),
    Mutant(
        "mismatches compares only the keys both maps hold", "families.py",
        "mx.keys() | my.keys()", "mx.keys() & my.keys()",
        ("tests/test_families.py::TestCombine::test_a_key_in_one_map_only",
         "tests/test_cdkernel.py::TestABCCoefficients::test_coefficient_beyond_column_n_fails",
         "tests/test_cdkernel.py::TestReproduction::test_detects_a_gram_error_invisible_at_the_spot_pairs",
         "tests/test_recurrence.py::TestRelations::test_planted_entry_located")),
    Mutant(
        "hankel compares each entry with itself", "moments.py",
        "!= ints[m][ns] * scale[ms]", "!= ints[ms][n] * scale[m]",
        ("tests/test_moments.py::TestHankelSymmetry::test_corruption_detected_and_located",)),
    Mutant(
        "check_hankel counts relations on an empty window", "moments.py",
        "checked=m_count * n_count)", "checked=m_count + n_count)",
        ("tests/test_moments.py::TestHankelSymmetry::test_empty_window_is_skipped",
         "tests/test_moments.py::TestHankelSymmetry::test_window_shrinks_with_depth",
         "tests/test_cli.py::TestCheckScope::test_names_and_counts[golden]")),
    Mutant(
        "n_minus_big counts one too many", "stepline.py",
        "return bisect_left(range(n), n,", "return 1 + bisect_left(range(n), n,",
        ("tests/test_stepline.py::TestShiftCount::test_matches_the_counting_loop",
         "tests/test_stepline.py::TestShiftCount::test_boundaries",
         "tests/test_recurrence.py::TestRelations::test_n_max_respects_window",
         "tests/test_cli.py::TestCheckScope::test_names_and_counts[golden]",
         "tests/test_metamorphic.py::TestTransposeDuality::test_recurrence_matrices_conjugated[1-mixed-1-2]")),
    Mutant(
        "in_complement_J accepts the next image point", "stepline.py",
        "r, k), r, k) == n", "r, k), r, k) >= n",
        ("tests/test_stepline.py::TestShiftTargets::test_recorded_memberships",
         "tests/test_stepline.py::TestExceptionSets::test_membership_against_enumeration",
         "tests/test_stepline.py::TestPreimage::test_matches_the_closed_form",
         "tests/test_acceptance.py::test_criterion_1_index_suite",
         "tests/test_recurrence.py::TestBandStructure::test_validate_on_random_systems",
         "tests/test_cli.py::TestVerify::test_all_checks_pass")),
    Mutant(
        "degree bound one position loose", "families.py",
        "if pos > bound:", "if pos > bound + 1:",
        ("tests/test_families.py::TestDegreeStructure::test_planted_coefficient_above_its_bound_located",)),
    Mutant(
        "orthogonality skips the last residual of each slot", "families.py",
        "enumerate(range(a_idx, n, r))", "enumerate(range(a_idx, n - 1, r))",
        ("tests/test_families.py::TestOrthogonality::test_condition_count",
         "tests/test_families.py::TestPlantedCoefficient::test_b_member",
         "tests/test_families.py::TestPlantedCoefficient::test_a_member")),
    Mutant(
        "orthogonality's A side dots row n of M instead of row c", "families.py",
        "v * M.ints[c][m]", "v * M.ints[n][m]",
        ("tests/test_families.py::TestOrthogonality::test_residuals_vanish_on_random_systems",
         "tests/test_families.py::TestProductRoute::test_products_match_pair_integrals",
         "tests/test_cli.py::TestVerify::test_all_checks_pass")),
    Mutant(
        "biorthogonality ignores entries off the diagonal", "families.py",
        "if num != (den if m == n else 0):", "if num != (den if m == n else num):",
        ("tests/test_families.py::TestPlantedCoefficient::test_b_member",
         "tests/test_families.py::TestPlantedCoefficient::test_a_member")),
    Mutant(
        "dual form left untransposed", "recurrence.py",
        "zip(T.acc, zip(*dual.acc))", "zip(T.acc, dual.acc)",
        ("tests/test_recurrence.py::TestDualForm::test_primal_equals_dual",
         "tests/test_recurrence.py::TestDualForm::test_planted_mismatch_located",
         "tests/test_cli.py::TestVerify::test_all_checks_pass")),
    Mutant(
        "band skips the zeros left of the band", "recurrence.py",
        "outside = [*range(first), *range(last + 1, D)]", "outside = [*range(last + 1, D)]",
        ("tests/test_recurrence.py::TestBandStructure::test_planted_band_violation_detected",
         "tests/test_recurrence.py::TestBandStructure::test_planted_column_errors_reported_once",
         "tests/test_recurrence.py::TestFailureText::test_first_violation_details")),
    Mutant(
        "recurrence relation drops the band's last term", "recurrence.py",
        "for i in range(lo, top + 1) if", "for i in range(lo, top) if",
        ("tests/test_recurrence.py::TestRelations::test_coefficient_space_identity",
         "tests/test_recurrence.py::TestRelations::test_planted_entry_located",
         "tests/test_cli.py::TestVerify::test_all_checks_pass")),
    Mutant(
        "projection compares its sum with itself", "cdkernel.py",
        "mismatches(got, want)", "mismatches(got, got)",
        ("tests/test_cdkernel.py::TestProjection::test_detects_a_term_that_vanishes_on_five_lines",
         "tests/test_cdkernel.py::TestProjection::test_detects_foreign_families",
         "tests/test_cdkernel.py::TestProjection::test_dual_detects_foreign_families")),
    Mutant(
        "projection's precondition accepts a non-unit leading coefficient", "cdkernel.py",
        "row.get(lead) != d", "lead not in row",
        ("tests/test_cdkernel.py::TestMonicPredicate::test_rejects_non_unit_leader",
         "tests/test_cdkernel.py::TestProjection::test_shape_and_monicity_guards")),
    Mutant(
        "the dual projection pairs A with P's product instead of P^T's", "cli.py",
        "moment_rows(P_dual, ws.M, D)", "moment_rows(P, ws.M, D)",
        ("tests/test_cli.py::TestVerify::test_all_checks_pass",
         "tests/test_cli.py::TestVerify::test_reports_are_byte_identical",
         "tests/test_cli.py::TestBuiltOnFirstRead::test_verify_forms_each_moment_product_once[golden]")),
    Mutant(
        "_projection draws both directions' polynomials at size p", "cli.py",
        "seeded_monic_columns(rng, q, I_dual)", "seeded_monic_columns(rng, p, I_dual)",
        ("tests/test_cli.py::TestCheckScope::test_names_and_counts[golden]",
         "tests/test_cli.py::TestCheckScope::test_names_and_counts[shape5]",
         "tests/test_cli.py::TestVerify::test_seed_reaches_no_output[shape1]")),
    Mutant(
        "Family.eval doubles the constant term", "families.py",
        "sums[i] += v * mono[K]", "sums[i] += v * mono[K] * (1 + (K == 0))",
        ("tests/test_cdkernel.py::TestKernelEval::test_table_matches_member_evaluation",
         "tests/test_cdkernel.py::TestABCCoefficients::test_detects_a_term_that_vanishes_at_the_abc_points",
         "tests/test_families.py::TestLazyRows::test_eval_builds_only_its_member")),
    Mutant(
        "Family.eval reads the member below", "families.py",
        "= self.r, self.rows[n]\n", "= self.r, self.rows[n - 1]\n",
        ("tests/test_families.py::TestLazyRows::test_eval_builds_only_its_member",
         "tests/test_families.py::TestLazyRows::test_quick_start_readers_on_rows_built_on_read",
         "tests/test_cdkernel.py::TestKernelEval::test_table_matches_member_evaluation")),
    Mutant(
        "monomial_ints swaps x1 and x2", "families.py",
        "(a * e) ** (i - j) * (c * b) ** j", "(a * e) ** j * (c * b) ** (i - j)",
        ("tests/test_families.py::TestMonomialTable::test_integers_over_one_denominator_are_the_monomials",
         "tests/test_cdkernel.py::TestKernelEval::test_table_matches_member_evaluation",
         "tests/test_acceptance.py::test_criterion_8_cli_contract",
         "tests/test_metamorphic.py::TestX1Scaling::test_kernel_unchanged[mixed-1-2-c=3]")),
    Mutant(
        "inverse_form's border drops the r_m weight", "cdkernel.py",
        "[r * v for v in border]", "[v for v in border]",
        ("tests/test_cdkernel.py::TestKernelEval::test_inverse_moment_form_matches_both_oracles[table]",
         "tests/test_cli.py::TestKernel::test_value_matches_library",
         "tests/test_acceptance.py::test_criterion_8_cli_contract",
         "tests/test_metamorphic.py::TestX1Scaling::test_kernel_unchanged[table-2-3-c=-0.5]",
         "tests/test_cdkernel.py::TestABCCoefficients::test_passes_wherever_the_oracle_passes[table]",
         "tests/test_cdkernel.py::TestABCCoefficients::test_report_names_each_failing_n_once",
         "tests/test_cli.py::TestVerify::test_all_checks_pass",
         "tests/test_metamorphic.py::TestUvarov::test_h_products_ratio_is_one_plus_w_times_the_kernel[table-2-3]")),
    Mutant(
        "cd's range below the band starts one n late", "cdkernel.py",
        "(c, first, T.col_band(c)[1], 1)", "(c, first + 1, T.col_band(c)[1], 1)",
        ("tests/test_cdkernel.py::TestCDFromRecurrences::test_planted_out_of_band_block_entry_fails_through_the_index_identity",
         "tests/test_cdkernel.py::TestCDFromRecurrences::test_planted_out_of_band_entry_flags_its_closed_form_range[below-past-n_max]",
         "tests/test_cdkernel.py::TestCDFromRecurrences::test_matches_the_sweep_on_planted_corruptions[table]",
         "tests/test_recurrence.py::TestFailureText::test_first_violation_details")),
    Mutant(
        "cd's range below the band ends one n early", "cdkernel.py",
        "T.col_band(c)[1], 1)", "T.col_band(c)[1] - 1, 1)",
        ("tests/test_cdkernel.py::TestCDFromRecurrences::test_planted_out_of_band_block_entry_fails_through_the_index_identity",
         "tests/test_cdkernel.py::TestCDFromRecurrences::test_matches_the_sweep_on_planted_corruptions[mixed]",
         "tests/test_recurrence.py::TestFailureText::test_first_violation_details")),
    Mutant(
        "cd's range above the band starts one n late", "cdkernel.py",
        "(c, T.col_band(c)[0], last, -1)", "(c, T.col_band(c)[0] + 1, last, -1)",
        ("tests/test_cdkernel.py::TestCDFromRecurrences::test_planted_out_of_band_entry_flags_its_closed_form_range[above]",
         "tests/test_cdkernel.py::TestCDFromRecurrences::test_matches_the_sweep_on_planted_corruptions[table]")),
    Mutant(
        "cd's range above the band ends one n early", "cdkernel.py",
        "T.col_band(c)[0], last, -1)", "T.col_band(c)[0], last - 1, -1)",
        ("tests/test_cdkernel.py::TestCDFromRecurrences::test_planted_out_of_band_entry_flags_its_closed_form_range[above]",
         "tests/test_cdkernel.py::TestCDFromRecurrences::test_matches_the_sweep_on_planted_corruptions[mixed]")),
    Mutant(
        "cd's weight below the band flips sign", "cdkernel.py",
        "T.col_band(c)[1], 1)", "T.col_band(c)[1], -1)",
        ("tests/test_cdkernel.py::TestCDFromRecurrences::test_planted_out_of_band_block_entry_fails_through_the_index_identity",
         "tests/test_cdkernel.py::TestCDFromRecurrences::test_planted_out_of_band_entry_flags_its_closed_form_range[below-past-n_max]",
         "tests/test_recurrence.py::TestFailureText::test_first_violation_details")),
    Mutant(
        "cd's weight above the band flips sign", "cdkernel.py",
        "last, -1)", "last, 1)",
        ("tests/test_cdkernel.py::TestCDFromRecurrences::test_planted_out_of_band_entry_flags_its_closed_form_range[above]",
         "tests/test_cdkernel.py::TestCDFromRecurrences::test_matches_the_sweep_on_planted_corruptions[table]")),
    Mutant(
        "cd's ranges run past n_max", "cdkernel.py",
        "for n in range(lo, min(hi, n_max))", "for n in range(lo, hi)",
        ("tests/test_cdkernel.py::TestCDFromRecurrences::test_planted_out_of_band_entry_flags_its_closed_form_range[below-past-n_max]",
         "tests/test_cdkernel.py::TestCDFromRecurrences::test_matches_the_sweep_on_planted_corruptions[table]")),
    Mutant(
        "H drops the row scale r_n", "gaussborel.py",
        "minors[n] * s[n] * sbar[n]", "minors[n] * sbar[n]",
        ("tests/test_gaussborel.py::TestFactorize::test_recovers_planted_factors",
         "tests/test_cli.py::TestVerify::test_whole_reports",
         "tests/test_acceptance.py::test_criterion_8_cli_contract",
         "tests/test_metamorphic.py::TestTransposeDuality::test_h_unchanged[mixed-1-2]",
         "tests/test_metamorphic.py::TestX1Scaling::test_h_scaled[mixed-2-1-c=3]")),
    Mutant(
        "S export drops the column scale s_c", "gaussborel.py",
        "ratio(v * s_c, den)", "ratio(v, den)",
        ("tests/test_cli.py::TestExportOracle::test_every_file_matches_the_rational_route[golden]",
         "tests/test_cli.py::TestExportOracle::test_every_file_matches_the_rational_route[mixed-1-1]",
         "tests/test_cli.py::TestCompute::test_export_contents_match_library",
         "tests/test_acceptance.py::test_criterion_8_cli_contract",
         "tests/test_metamorphic.py::TestTransposeDuality::test_s_and_sbar_swapped[table-2-3]",
         "tests/test_metamorphic.py::TestX1Scaling::test_factor_scaled[S-table-2-3-c=-0.5]")),
    Mutant(
        "Sbar export writes the S side", "cli.py",
        '"Sbar": unit_lower(F.minors, F.Sbar_int, D', '"Sbar": unit_lower(F.minors, F.S_int, D',
        ("tests/test_textbook.py::test_triangular_s_and_sbar_differ_on_the_odd_rows",
         "tests/test_cli.py::TestExportOracle::test_every_file_matches_the_rational_route[golden]",
         "tests/test_cli.py::TestExportOracle::test_every_file_matches_the_rational_route[table-2-2]",
         "tests/test_cli.py::TestCompute::test_export_contents_match_library",
         "tests/test_acceptance.py::test_criterion_8_cli_contract",
         "tests/test_metamorphic.py::TestTransposeDuality::test_s_and_sbar_swapped[mixed-2-1]",
         "tests/test_metamorphic.py::TestX1Scaling::test_factor_scaled[Sbar-mixed-1-2-c=3]")),
    Mutant(
        "T_k export drops the column scale r_n", "recurrence.py",
        "ratio(a * r_n, den_m * d_n)", "ratio(a, den_m * d_n)",
        ("tests/test_cli.py::TestExportOracle::test_every_file_matches_the_rational_route[golden]",
         "tests/test_cli.py::TestExportOracle::test_every_file_matches_the_rational_route[table-1-2]",
         "tests/test_recurrence.py::TestIntegerRoute::test_matches_rational_sum",
         "tests/test_acceptance.py::test_criterion_8_cli_contract",
         "tests/test_metamorphic.py::TestTransposeDuality::test_recurrence_matrices_conjugated[2-table-2-3]",
         "tests/test_metamorphic.py::TestX1Scaling::test_recurrence_matrices_scaled[1-discrete-1-2-c=-0.5]")),
    Mutant(
        "families export splits A by q and B by p", "cli.py",
        '(("A", ws.M.p, A), ("B", ws.M.q, B))', '(("A", ws.M.q, A), ("B", ws.M.p, B))',
        ("tests/test_cli.py::TestExportOracle::test_every_file_matches_the_rational_route[golden]",
         "tests/test_cli.py::TestExportOracle::test_every_file_matches_the_rational_route[mixed-2-3]",
         "tests/test_cli.py::TestCompute::test_export_contents_match_library",
         "tests/test_acceptance.py::test_criterion_8_cli_contract",
         "tests/test_metamorphic.py::TestTransposeDuality::test_families_swap_sides[mixed-1-2]",
         "tests/test_metamorphic.py::TestTransposeDuality::test_families_swap_sides[table-2-3]")),
    Mutant(
        "moments export reads the next row's scale", "cli.py",
        "zip(M.ints[:D], M.scale)", "zip(M.ints[:D], M.scale[1:] + M.scale[:1])",
        ("tests/test_cli.py::TestExportOracle::test_every_file_matches_the_rational_route[golden]",
         "tests/test_cli.py::TestExportOracle::test_every_file_matches_the_rational_route[mixed-2-1]",
         "tests/test_cli.py::TestCompute::test_export_contents_match_library",
         "tests/test_acceptance.py::test_criterion_8_cli_contract",
         "tests/test_metamorphic.py::TestTransposeDuality::test_moments_transposed[table-2-1]",
         "tests/test_metamorphic.py::TestX1Scaling::test_moments_scaled[discrete-1-2-c=-0.5]")),
    Mutant(
        "any-size text writes an integer over 1", "rational.py",
        'return num if den == "1" else f"{num}/{den}"', 'return f"{num}/{den}"',
        ("tests/test_cli.py::TestExportOracle::test_every_file_matches_the_rational_route[huge]",
         "tests/test_cli.py::TestHugeEntries::test_compute_and_verify",
         "tests/test_measures.py::TestRationalParsing::test_any_size",
         "tests/test_acceptance.py::test_criterion_8_cli_contract")),
    Mutant(
        "eliminate's group update flips c_1's sign", "gaussborel.py",
        "- c2 * y2 + c1 * y1 - c0 * y0) // prev", "- c2 * y2 - c1 * y1 - c0 * y0) // prev",
        ("tests/test_gaussborel.py::TestEliminate::test_matches_one_step_oracle",
         "tests/test_gaussborel.py::TestEliminate::test_zero_multiplier_at_each_offset[0]",
         "tests/test_gaussborel.py::TestEliminate::test_matches_one_step_oracle_on_extended_truncations[table]",
         "tests/test_metamorphic.py::TestTransposeDuality::test_kernel_transposed[table-2-3]",
         "tests/test_metamorphic.py::TestX1Scaling::test_h_scaled[table-2-3-c=-0.5]")),
    Mutant(
        "row k+2's pair update flips row k's sign", "gaussborel.py",
        "(w01_01 * x - w02_01 * y + w12_01 * z) // prev", "(w01_01 * x - w02_01 * y - w12_01 * z) // prev",
        ("tests/test_gaussborel.py::TestEliminate::test_matches_one_step_oracle",
         "tests/test_gaussborel.py::TestEliminate::test_zero_multiplier_at_each_offset[1]",
         "tests/test_gaussborel.py::TestEliminate::test_matches_one_step_oracle_on_extended_truncations[mixed]",
         "tests/test_metamorphic.py::TestTransposeDuality::test_s_and_sbar_swapped[table-2-1]",
         "tests/test_metamorphic.py::TestX1Scaling::test_factor_scaled[Sbar-mixed-2-1-c=3]")),
    Mutant(
        "a group's first Breakdown names the next step", "gaussborel.py",
        "if p00 == 0:\n            raise Breakdown(k)", "if p00 == 0:\n            raise Breakdown(k + 1)",
        ("tests/test_gaussborel.py::TestEliminate::test_breaks_down_where_the_oracle_does[0]",
         "tests/test_gaussborel.py::TestWindow::test_breakdown_past_the_window[3]",
         "tests/test_gaussborel.py::TestWindow::test_breakdown_past_the_window[6]")),
    Mutant(
        "a group's second Breakdown names the step before", "gaussborel.py",
        "raise Breakdown(k + 1)", "raise Breakdown(k)",
        ("tests/test_gaussborel.py::TestEliminate::test_breaks_down_where_the_oracle_does[1]",
         "tests/test_gaussborel.py::TestWindow::test_breakdown_past_the_window[4]",
         "tests/test_gaussborel.py::TestWindow::test_breakdown_past_the_window[7]")),
    Mutant(
        "a group's third Breakdown names the step before", "gaussborel.py",
        "raise Breakdown(k + 2)", "raise Breakdown(k + 1)",
        ("tests/test_gaussborel.py::TestEliminate::test_breaks_down_where_the_oracle_does[2]",
         "tests/test_gaussborel.py::TestWindow::test_breakdown_past_the_window[5]",
         "tests/test_gaussborel.py::TestWindow::test_breakdown_past_the_window[8]")),
    Mutant(
        "the certificate always passes", "gaussborel.py",
        "    schur = _schur_residues(ints, panel, minors)", "    return True",
        ("tests/test_cli.py::TestBreakdownContract::test_breakdown_past_the_window_exits_two",
         "tests/test_gaussborel.py::TestWindow::test_certificate_passes_iff_the_prime_divides_no_minor",
         "tests/test_gaussborel.py::TestWindow::test_breakdown_past_the_window[6]")),
    Mutant(
        "the certificate always fails", "gaussborel.py",
        "    schur = _schur_residues(ints, panel, minors)", "    return False",
        ("tests/test_cli.py::TestBreakdownContract::test_generic_configs_take_no_fallback",
         "tests/test_gaussborel.py::TestWindow::test_certificate_passes_iff_the_prime_divides_no_minor")),
    Mutant(
        "the certificate accepts a minor the prime divides", "gaussborel.py",
        "all(d % CERT_PRIME for d in", "all(d for d in",
        ("tests/test_gaussborel.py::TestWindow::test_certificate_passes_iff_the_prime_divides_no_minor",)),
    Mutant(
        "the certificate's slots are one bit too narrow to hold width (P - 1)^2", "gaussborel.py",
        "bits = ((P - 1) ** 2 * width).bit_length()", "bits = ((P - 1) ** 2 * width).bit_length() - 1",
        ("tests/test_gaussborel.py::TestWindow::test_packed_reduction_at_the_slot_bound[0]",)),
    Mutant(
        "factorize builds one Sbar row fewer", "gaussborel.py",
        "_factor_row(minors, Sbar_inv, n) for n in range(W)]",
        "_factor_row(minors, Sbar_inv, n) for n in range(W - 1)]",
        ("tests/test_gaussborel.py::TestFactorRows::test_each_row_built_once_in_factorize",
         "tests/test_gaussborel.py::TestFactorRows::test_rows_are_the_bordered_numerators",
         "tests/test_cli.py::TestRowsBuiltOnRead::test_compute_builds_only_the_window[golden]",
         "tests/test_metamorphic.py::TestTransposeDuality::test_s_and_sbar_swapped[mixed-1-2]",
         "tests/test_metamorphic.py::TestX1Scaling::test_factor_scaled[Sbar-discrete-1-2-c=-0.5]")),
    Mutant(
        "load_config lets a file that is not UTF-8 escape", "cli.py",
        "except ValueError as exc:  # a JSONDecodeError", "except json.JSONDecodeError as exc:  #",
        ("tests/test_cli.py::TestConfigErrors::test_config_not_utf8_exits_three",
         "tests/test_cli.py::TestConfigFuzz::test_config_file_bytes")),
    Mutant(
        "load_config lets deep nesting escape", "cli.py",
        "    except RecursionError as exc:", "    except ArithmeticError as exc:",
        ("tests/test_cli.py::TestConfigErrors::test_config_nested_too_deep_exits_three",)),
    Mutant(
        "hankel checks k = 1 only", "cli.py",
        "[check_hankel(ws.M, k) for k in (1, 2)]", "[check_hankel(ws.M, k) for k in (1,)]",
        ("tests/test_cli.py::TestCheckScope::test_names_and_counts[golden]",
         "tests/test_cli.py::TestCheckScope::test_names_and_counts[shape3]")),
    Mutant(
        "dual checks k = 1 only", "cli.py",
        "[check_dual_form(ws.T[k]) for k in (1, 2)]", "[check_dual_form(ws.T[k]) for k in (1,)]",
        ("tests/test_cli.py::TestCheckScope::test_names_and_counts[golden]",
         "tests/test_cli.py::TestCheckScope::test_names_and_counts[shape5]")),
    Mutant(
        "band checks k = 1 only", "cli.py",
        "[validate_band(ws.T[k]) for k in (1, 2)]", "[validate_band(ws.T[k]) for k in (1,)]",
        ("tests/test_cli.py::TestCheckScope::test_names_and_counts[golden]",
         "tests/test_cli.py::TestCheckScope::test_names_and_counts[shape5]")),
    Mutant(
        "projection draws matrix polynomials of degree 2 at most", "cli.py",
        "I, I_dual = min(3, D // p - 1), min(3, D // q - 1)", "I, I_dual = min(2, D // p - 1), min(2, D // q - 1)",
        ("tests/test_cli.py::TestCheckScope::test_names_and_counts[golden]",
         "tests/test_cli.py::TestCheckScope::test_names_and_counts[shape5]")),
    Mutant(
        "degree skips family A", "families.py",
        '(("B", B, B.r, False), ("A", A, A.r, True))', '(("B", B, B.r, False),)',
        ("tests/test_cli.py::TestCheckScope::test_names_and_counts[golden]",
         "tests/test_cli.py::TestCheckScope::test_names_and_counts[shape1]")),
    Mutant(
        "recurrence checks the B relations only", "recurrence.py",
        "own, other in relations:", "own, other in relations[:1]:",
        ("tests/test_cli.py::TestCheckScope::test_names_and_counts[golden]",
         "tests/test_cli.py::TestCheckScope::test_names_and_counts[shape4]")),
    Mutant(
        "reproduction stops one member short", "cli.py",
        "check_reproduction(ws.A, ws.B, ws.gram, ws.depth - 1)",
        "check_reproduction(ws.A, ws.B, ws.gram, ws.depth - 2)",
        ("tests/test_cli.py::TestCheckScope::test_names_and_counts[golden]",
         "tests/test_cli.py::TestCheckScope::test_names_and_counts[shape2]")),
    Mutant(
        "cd checks one formula fewer", "cdkernel.py",
        "rep.checked = n_max", "rep.checked = n_max - 1",
        ("tests/test_cli.py::TestCheckScope::test_names_and_counts[golden]",
         "tests/test_cli.py::TestCheckScope::test_names_and_counts[shape3]")),
    Mutant(
        "abc checks the corners below 7 only", "cli.py",
        "for n in range(min(ws.depth, 8))", "for n in range(min(ws.depth, 7))",
        ("tests/test_cli.py::TestCheckScope::test_names_and_counts[golden]",
         "tests/test_cli.py::TestCheckScope::test_names_and_counts[shape1]")),
    Mutant(
        "T_k entry divides by Delta_n, not Delta_{n+1}", "recurrence.py",
        "minors[m] * r[m] * minors[n + 1] * self.L", "minors[m] * r[m] * minors[n] * self.L",
        ("tests/test_recurrence.py::TestFailureText::test_first_violation_details",)),
    Mutant(
        "band text drops H_first's denominator", "recurrence.py",
        "want = ratio_text(h_n * d_f, d_n * h_f)", "want = ratio_text(h_n, d_n * h_f)",
        ("tests/test_recurrence.py::TestFailureText::test_first_violation_details",)),
    Mutant(
        "H ignores the Sbar side's scale", "gaussborel.py",
        "minors[n] * s[n] * sbar[n]", "minors[n] * s[n]",
        ("tests/test_recurrence.py::TestBandStructure::test_transposed_factorization_reads_both_scales",)),
    Mutant(
        "extract_families drops the Sbar side's scale", "families.py",
        "v * s[c] * sbar[n] for c, v in enumerate(row) if v}) for n, row in enumerate(L)]\n"
        "    A = [(minors[n] * sbar[n], {c: v * sbar[c] for",
        "v * s[c] for c, v in enumerate(row) if v}) for n, row in enumerate(L)]\n"
        "    A = [(minors[n], {c: v for",
        ("tests/test_gaussborel.py::TestFactorize::test_transpose_is_factorization_of_transpose",)),
    Mutant(
        "compute's band starts one column late", "recurrence.py",
        "lo = n_minus_big(m, p, k) if band else 0", "lo = n_minus_big(m, p, k) + 1 if band else 0",
        ("tests/test_recurrence.py::TestBandOnly::test_band_only_matches_dense[mixed]",
         "tests/test_recurrence.py::TestBandOnly::test_band_only_matches_dense[table]",
         "tests/test_cli.py::TestExportOracle::test_every_file_matches_the_rational_route[golden]",
         "tests/test_metamorphic.py::TestTransposeDuality::test_recurrence_matrices_conjugated[1-table-2-1]")),
    Mutant(
        "verify sums T_k over the bands only", "cli.py",
        "band = self.width is not None",
        "band = True",
        ("tests/test_cli.py::TestBuiltOnFirstRead::test_only_compute_sums_over_the_band[golden]",)),
    Mutant(
        "the shared B product stops one member short", "cli.py",
        "moment_rows(self.B.head(self.depth), self.M, self.depth)",
        "moment_rows(self.B.head(self.depth - 1), self.M, self.depth)",
        ("tests/test_cli.py::TestCheckScope::test_names_and_counts[golden]",
         "tests/test_cli.py::TestCheckScope::test_names_and_counts[shape5]",
         "tests/test_cli.py::TestVerify::test_all_checks_pass",
         "tests/test_cli.py::TestBuiltOnFirstRead::test_verify_forms_each_moment_product_once[golden]")),
    Mutant(
        "Factorization.transpose keeps q and p unswapped", "gaussborel.py",
        "Factorization(self.depth, self.p, self.q,", "Factorization(self.depth, self.q, self.p,",
        ("tests/test_gaussborel.py::TestBlockShape::test_factorization_owns_the_shape",
         "tests/test_recurrence.py::TestDualForm::test_primal_equals_dual",
         "tests/test_recurrence.py::TestIntegerRoute::test_matches_rational_sum",
         "tests/test_cli.py::TestVerify::test_all_checks_pass")),
    Mutant(
        "the row scale taken from unreduced denominators", "measures.py",
        "    return num // g, den // g", "    return num, den",
        ("tests/test_moments.py::TestIntegersFromText::test_scale_and_ints_match_the_fraction_oracle",
         "tests/test_measures.py::TestIntegerRectOracle::test_deep_exponents",
         "tests/test_moments.py::TestAssembly::test_rows_scaled_once_when_built[mixed]")),
    Mutant(
        "the parser reduces the numerator only", "rational.py",
        "    return num // g, den // g", "    return num // g, den",
        ("tests/test_moments.py::TestIntegersFromText::test_scale_and_ints_match_the_fraction_oracle",
         "tests/test_measures.py::TestRationalParsing::test_normalization")),
    Mutant(
        "RectDensity's far power drops pow's sign for a negative bound", "measures.py",
        "[w * pow(v, e) for w, v", "[w * pow(abs(v), e) for w, v",
        ("tests/test_cli.py::TestFarDensityPosition::test_moments_match_the_closed_form",)),
    Mutant(
        "main lets a MemoryError escape", "cli.py",
        "    except MemoryError:", "    except ArithmeticError:",
        ("tests/test_cli.py::TestConfigErrors::test_depth_beyond_memory_exits_three[compute]",
         "tests/test_cli.py::TestConfigErrors::test_depth_beyond_memory_exits_three[kernel]")),
    Mutant(
        "a closed stdout escapes as a BrokenPipeError", "cli.py",
        "    except BrokenPipeError:", "    except ConnectionResetError:",
        ("tests/test_cli.py::TestClosedStdout::test_verify_writes_the_golden_report",
         "tests/test_cli.py::TestClosedStdout::test_breakdown_keeps_exit_two",
         "tests/test_cli.py::TestClosedStdout::test_kernel_exits_zero")),
    Mutant(
        "kernel writes each point coordinate as its literal", "cli.py",
        '"x": [ratio_text(*v) for v in x],', '"x": [t.strip() for t in args.x.split(",")],',
        ("tests/test_cli.py::TestKernel::test_point_text[reduced]",
         "tests/test_cli.py::TestKernel::test_point_text[signed]")),
    Mutant(
        "RectDensity skips the bound on its moments' bits", "measures.py",
        "        for K in self.density:\n            i, j = pair_of(K)",
        "        for K in ():\n            i, j = pair_of(K)",
        ("tests/test_cli.py::TestFarDensityBound::test_refused_at_once_under_a_memory_limit",
         "tests/test_cli.py::TestFarDensityBound::test_estimate_at_the_ceiling[x1-bound]",
         "tests/test_cli.py::TestFarDensityBound::test_estimate_at_the_ceiling[denominator]")),
]
