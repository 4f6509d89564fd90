"""Mutants of `src/` that the tests must kill, and a script that checks it.

Each mutant is an exact one-place edit (file, old text, new text) with the
tests named to kill it.  Each weakens a fact that a printed result rests on.
A change that adds a fast path or a check adds its own mutants here.

    python tests/mutants.py

copies `src/`, `tests/` and `pyproject.toml` into a temporary directory, runs
the named tests there once unmutated (they must pass), then applies each
mutant to a fresh copy and runs only its tests.  It never edits the working
tree.  It exits non-zero, naming each survivor, if a mutant survives, its old
text is not found exactly once, its tests cannot run, or they run past
TIMEOUT seconds.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 120  # seconds for one pytest run; a mutant whose tests run longer is not killed


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids


MUTANTS = [
    Mutant("relations skip hh", "src/verlie/verify.py",
           '("hf", h, f), ("hh", h, h))}', '("hf", h, f))}',
           ("tests/test_verify.py::test_relations_witness_lists_noncommuting_h_images",)),
    Mutant("relations skip the h parity", "src/verlie/verify.py",
           "[target.gcm.parity] * 2 + [[0] * r]", "[target.gcm.parity] * 2 + [parity[2]]",
           ("tests/test_verify.py::test_relations_witness_lists_an_odd_h_image",
            "tests/test_verify.py::test_relations_report_an_h_image_that_mixes_parities")),
    Mutant("generation passes at dim - 1", "src/verlie/verify.py",
           "    ok = generated == alg.dim", "    ok = generated >= alg.dim - 1",
           ("tests/test_verify.py::test_sl3_generators_generate_a_hyperplane_of_gl3",)),
    Mutant("even route ignores the even dimension", "src/verlie/verify.py",
           "type_ok = label == target.even_type and dim == target.superdim[0]",
           "type_ok = label == target.even_type",
           ("tests/test_verify.py::test_even_route_checks_the_even_dimension",)),
    Mutant("even route passes its axioms report", "src/verlie/verify.py",
           '    axioms = next((r for r in ss.checks.values() if not r), Report("axioms", True))',
           '    axioms = Report("axioms", True)',
           ("tests/test_verify.py::test_even_route_reads_the_axiom_reports",)),
    Mutant("odd-odd splitting sum with its sign flipped", "src/verlie/semisimplify.py",
           "split = sparse.combine([((-1) ** t,", "split = sparse.combine([(-(-1) ** t,",
           ("tests/test_acceptance.py::test_criterion_7_oracle_equivalence",)),
    Mutant("odd-odd brackets scaled by 3 at p = 7", "src/verlie/semisimplify.py",
           "        split = sparse.product(split, coords_t, p)",
           "        split = sparse.product(sparse.combine([(3 if p == 7 else 1, split)], p), coords_t, p)",
           ("tests/test_cli_golden.py::test_json_payload_pinned[semisimplify --algebra f4 -p 7 --element e1+e2+e4]",
            "tests/test_semisimplify.py::test_semisimplify_matches_the_literal_reference_at_every_odd_p")),
    Mutant("parser looks generators up before the parse ends", "src/verlie/repalpha.py",
           "            self.unknown = self.unknown or name",
           '            raise UnknownGenerator(f"algebra has no generator {name}")',
           ("tests/test_repalpha.py::test_a_syntax_error_wins_over_an_unknown_generator",)),
    Mutant("parser leaves a scaled term unreduced", "src/verlie/repalpha.py",
           "            return coeff * self.atom() % self.alg.p", "            return coeff * self.atom()",
           ("tests/test_repalpha.py::test_parse_reduces_every_scaled_term",
            "tests/test_repalpha.py::test_parse_matches_the_expression_it_was_built_from")),
    Mutant("parser swaps the operands of a bracket", "src/verlie/repalpha.py",
           "            return self.alg.bracket(left, right)", "            return self.alg.bracket(right, left)",
           ("tests/test_repalpha.py::test_parse_brackets_in_order",
            "tests/test_repalpha.py::test_parse_matches_the_expression_it_was_built_from")),
    Mutant("parser scales by the coefficient as read", "src/verlie/repalpha.py",
           "            coeff = self.integer() % self.alg.p", "            coeff = self.integer()",
           ("tests/test_repalpha.py::test_parse_reduces_every_scaled_term",)),
    Mutant("mixed constant keeps a negative (b, z) pair's sign", "src/verlie/chevalley.py",
           "-n_pos(b - npos, z - npos)", "n_pos(b - npos, z - npos)",
           ("tests/test_chevalley.py::test_chevalley_basis_pinned",)),
    Mutant("mixed constant keeps a negative (z, a) pair's sign", "src/verlie/chevalley.py",
           "-n_pos(z - npos, a - npos)", "n_pos(z - npos, a - npos)",
           ("tests/test_chevalley.py::test_chevalley_basis_pinned",)),
    Mutant("parity check passes unless every entry is bad", "src/verlie/roots.py",
           "any(par not in (EVEN, ODD) for par in parity)", "all(par not in (EVEN, ODD) for par in parity)",
           ("tests/test_roots.py::test_parity_with_one_bad_entry_is_rejected",)),
    Mutant("head pick reads D ker D^(l+1) at a part's own level, not the one below", "src/verlie/repalpha.py",
           "np.matmul(kernels[2:, lower], below", "np.matmul(kernels[2:], below",
           ("tests/test_repalpha.py::test_level_parts_give_the_padded_head_pick",
            "tests/test_repalpha.py::test_a_cycle_of_defect_two_gives_levels_mod_two")),
    Mutant("levels ignore the gcd of the cycle defects", "src/verlie/repalpha.py",
           "level = (phi - low[blocks]) % np.where(n > 0, n, dim)[blocks]", "level = phi - low[blocks]",
           ("tests/test_repalpha.py::test_a_cycle_of_defect_two_gives_levels_mod_two",
            "tests/test_repalpha.py::test_dependent_roots_give_one_level_per_block")),
    Mutant("spec values read without the integrality check", "src/verlie/roots.py",
           "    if isinstance(value, bool) or not isinstance(value, int):", "    if False:",
           ("tests/test_roots.py::test_entries_are_read_exactly[float]",
            "tests/test_cli.py::test_spec_file_values_are_read_exactly[cartan-float]",
            "tests/test_cli.py::test_spec_file_values_are_read_exactly[p-float]")),
    # at the parent's permutation search this mutant ran past any per-test time limit
    Mutant("simple roots are the positives with no difference outside the positives", "src/verlie/verify.py",
           "if not any(d.tobytes()", "if not all(d.tobytes()",
           ("tests/test_verify.py::test_recognize_f4_self",
            "tests/test_verify.py::test_recognize_e8_self_within_a_second")),
    Mutant("sl left inverse stops its partial sum one H early", "src/verlie/chevalley.py",
           "inverse[m * (n + 1), len(off) + m:] = 1", "inverse[m * (n + 1), len(off) + m:-1] = 1",
           ("tests/test_chevalley.py::test_matrix_algebras_pinned",)),
    Mutant("parity split keeps rows that mix parities", "src/verlie/superalgebra.py",
           "    if (parity < 0).any():\n"
           '        raise NotParityHomogeneous("subspace is not a sum of homogeneous parts")\n'
           "    return sub.rows[parity == 0], sub.rows[parity == 1]\n",
           "    return sub.rows[parity == 0], sub.rows[parity != 0]\n",
           ("tests/test_superalgebra.py::test_quotient_rejects_mixed_parity",
            "tests/test_superalgebra.py::test_parity_split_reads_the_echelon_rows")),
    Mutant("a row that mixes parities reads as odd", "src/verlie/superalgebra.py",
           "        return np.where(odd & rows[:, self.parity == 0].any(axis=1), -1, odd.astype(np.int64))",
           "        return odd.astype(np.int64)",
           ("tests/test_verify.py::test_relations_refuse_an_odd_node_image_that_mixes_parities",
            "tests/test_superalgebra.py::test_parities_agree_with_the_per_vector_rule")),
    Mutant("a spec file's p wins over a -p that differs", "src/verlie/cli.py",
           "    if p not in (None, own):", "    if False:",
           ("tests/test_cli.py::test_spec_file_p_and_flag_that_differ_are_refused",)),
    Mutant("parser lets a nesting past the stack raise RecursionError", "src/verlie/repalpha.py",
           '        raise ParseError("nested too deeply", parser.pos) from None', "        raise",
           ("tests/test_cli.py::test_element_nested_400_deep_is_a_parse_error",)),
    Mutant("Jacobi sums a tensor that is not skew", "src/verlie/superalgebra.py",
           '        if not check_super_skew(alg):\n            return {"requires": "super_skew"}\n', "",
           ("tests/test_superalgebra.py::test_check_super_jacobi_requires_super_skew",)),
    Mutant("cube rows formed after a failed Jacobi check", "src/verlie/superalgebra.py",
           '    if not check_super_jacobi(alg):\n        return {"requires": "super_jacobi"}\n', "",
           ("tests/test_superalgebra.py::test_odd_cubes_after_failed_jacobi_require_super_jacobi",)),
    Mutant("cube rows formed on a bracket that breaks parity", "src/verlie/superalgebra.py",
           "    if (alg.parity[alg.tensor.row] ^ alg.parity[j] ^ alg.parity[k]).any():", "    if False:",
           ("tests/test_superalgebra.py::test_odd_cubes_require_a_bracket_that_respects_parity",)),
    Mutant("subspaces of one ambient compare equal whatever their spans", "src/verlie/superalgebra.py",
           "            and self.p == other.p", "            or self.p == other.p",
           ("tests/test_superalgebra.py::test_distinct_spans_of_one_ambient_compare_unequal",)),
    Mutant("basis check accepts any set of nonzero tails", "src/verlie/repalpha.py",
           "if len(sparse.distinct(ends)) < len(lengths)", "if len(ends) < len(lengths)",
           ("tests/test_repalpha.py::test_independent_heads_with_dependent_tails_are_not_a_basis",
            "tests/test_repalpha.py::test_basis_verdict_agrees_with_the_dense_check_on_mixed_chains")),
    Mutant("basis check refuses tails that share a column without the blocked fallback", "src/verlie/repalpha.py",
           "< len(lengths) and not fp.independent_rows(", "< len(lengths) or not fp.independent_rows(",
           ("tests/test_repalpha.py::test_independent_heads_with_dependent_tails_are_not_a_basis",
            "tests/test_cli_golden.py::test_json_payload_pinned[decompose --algebra e6 -p 3 --element e1+e2+e5]")),
    Mutant("blocked fallback skips the rank of blocks of several rows", "src/verlie/fp.py",
           "    if not (several := (heights > 1).nonzero()[0]).size:", "    if True:",
           ("tests/test_repalpha.py::test_independent_heads_with_dependent_tails_are_not_a_basis",
            "tests/test_fp.py::test_independent_rows_matches_the_rank")),
    Mutant("frozen arrays are copies read-only by flag only", "src/verlie/sparse.py",
           "    return np.frombuffer(a.tobytes(), np.int64).reshape(a.shape)",
           "    a = a.copy()\n    a.flags.writeable = False\n    return a",
           ("tests/test_repalpha.py::test_validated_decomposition_cannot_change_silently",)),
    Mutant("semisimplify skips the check against another D", "src/verlie/semisimplify.py",
           "    if decomp.der is not realization.der:", "    if False:",
           ("tests/test_semisimplify.py::test_a_decomposition_of_another_realization_is_checked_again",)),
    Mutant("an internal fault exits as a refused input", "src/verlie/cli.py",
           "    except errors.InternalError as exc:\n"
           '        print(f"internal assertion failed: {exc}", file=sys.stderr)\n'
           "        return 4\n", "",
           ("tests/test_cli.py::test_an_internal_fault_exits_4",)),
    Mutant("the shared integral basis is not frozen", "src/verlie/chevalley.py",
           "@dataclass(frozen=True, eq=False)\nclass IntegralLieAlgebra:",
           "@dataclass(eq=False)\nclass IntegralLieAlgebra:",
           ("tests/test_chevalley.py::test_shared_integral_basis_cannot_change",)),
    Mutant("the root system is not frozen", "src/verlie/roots.py",
           "@dataclass(frozen=True)\nclass RootSystem:", "@dataclass\nclass RootSystem:",
           ("tests/test_chevalley.py::test_shared_integral_basis_cannot_change",)),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def apply(mutant: Mutant, root: Path) -> None:
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise LookupError(f"{mutant.name}: old text found {text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run_tests(root: Path, tests) -> int | None:
    """pytest's exit code, or None if it ran past TIMEOUT and was stopped."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        return None


def main(chosen: list[Mutant]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        named = sorted({t for m in chosen for t in m.tests})
        code = run_tests(clean, named)
        if code != 0:
            reason = f"timed out after {TIMEOUT} s" if code is None else f"pytest exit {code}"
            print(f"the named tests do not pass unmutated ({reason})")
            return 1
        bad = []
        for i, mutant in enumerate(chosen):
            root = Path(tmp) / f"mutant{i}"
            copy_tree(root)
            try:
                apply(mutant, root)
            except LookupError as exc:
                print(f"error    {exc}")
                bad.append(mutant.name)
                continue
            code = run_tests(root, mutant.tests)
            verdict = {0: "SURVIVED", 1: "killed", None: f"timed out after {TIMEOUT} s"}.get(
                code, f"error (pytest exit {code})")
            print(f"{verdict:8} {mutant.name}")
            if code != 1:
                bad.append(mutant.name)
            shutil.rmtree(root)
    if bad:
        print(f"{len(bad)} of {len(chosen)} mutants not killed: {'; '.join(bad)}")
        return 1
    print(f"all {len(chosen)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(MUTANTS))
