"""Mutants of the package, each with the tests that must catch it.

Stdlib only; pytest must be importable by the interpreter that runs it:

    python tools/mutants.py           # run every mutant; exit 1 if one survives
    python tools/mutants.py --check   # only check that every fragment occurs once

A mutant names a file under ``src/bairecf/``, an exact source fragment, its
replacement and the pytest node ids that must fail once the fragment is
replaced.  For each mutant the script copies ``src/`` to a temporary
directory, refuses a fragment that does not occur exactly once there, applies
the replacement and runs the named tests in a subprocess with ``PYTHONPATH``
on the copy.  The mutant is caught when every named test fails; otherwise it
survives.  The named tests first run once on an unmutated copy, where they
must all pass.

``EQUIVALENT`` lists mutants that cannot change any answer, each with the
argument why.  They are not run, but their fragments are checked like the
others, so a later reader does not re-run them as survivors.  A change that
removes a fragment replaces its mutant in the same change.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ULTRA = "tests/test_ultra.py::"
CLI = "tests/test_cli.py::"
EXPORTS = "tests/test_exports.py::"
UNPRINTABLE = "test_cover_verify_refuses_unprintable_maxima_before_the_walk"


class Mutant(NamedTuple):
    path: str  # under src/bairecf/
    fragment: str
    replacement: str
    tests: tuple[str, ...]


class Equivalent(NamedTuple):
    path: str
    fragment: str
    replacement: str
    argument: str


MUTANTS = [
    # the ultrametric verdict: the distinct-entry count, then the centered sweep
    Mutant("ultra.py", "if (len(table._entries) <= len(table.points)\n            and ", "if (",
           (ULTRA + "test_count_refuses_with_no_sweep_and_sweep_passes_with_no_scan",)),
    Mutant("ultra.py", "len(table._entries) <= len(table.points)",
           "len(table._entries) < len(table.points)",
           (ULTRA + "test_count_refuses_with_no_sweep_and_sweep_passes_with_no_scan",)),
    Mutant("ultra.py", "return all(map(eq, owner, owner.values()))", "return True",
           (ULTRA + "test_verify_ultrametric_tied_and_tiny_tables",
            ULTRA + "test_two_value_failure_scan_matches_oracle",
            ULTRA + "test_reports_match_fraction_oracles")),
    # a sweep that refuses an ultrametric sends it to the triple scan, which passes it:
    # only the test that forbids the scan on a passing table sees the mutant
    Mutant("ultra.py", "owner[ball] = owner.get(ball, 0) | 1 << i", "owner[ball] = 1 << i",
           (ULTRA + "test_count_refuses_with_no_sweep_and_sweep_passes_with_no_scan",)),
    # each distance is reduced as it is read, and the table lists its distinct entries once
    Mutant("ultra.py", " or v[1] <= 0 or gcd(*v) != 1):", " or v[1] <= 0):",
           (ULTRA + "test_distance_table_values_match_fraction_oracle",)),
    Mutant("ultra.py", "range(1, len(self._entries))", "range(len(self._entries))",
           (ULTRA + "test_distance_table_basics",
            ULTRA + "test_ball_sweep_matches_midpoint_oracle",
            ULTRA + "test_reports_match_fraction_oracles",
            ULTRA + "test_count_refuses_with_no_sweep_and_sweep_passes_with_no_scan")),
    Mutant("ultra.py", "few = len(table._entries) <= 3", "few = len(table._entries) <= 4",
           (ULTRA + "test_reports_match_fraction_oracles",)),
    # packed rows: the metric check's fields, 8 to 64 bits wide, hold two entries capped at
    # 2^(w-2) - 1 under a guard bit, and a pair past the cap is read entry by entry, looking
    # for k only when one fails; the balls and the witness read the rank rows, whose items are
    # one bit wider than the largest rank; the lowest marked guard names the first k
    Mutant("ultra.py", "cap = (1 << w - 2) - 1", "cap = (1 << w - 1) - 1",
           (ULTRA + "test_packed_checks_match_oracles_at_the_field_width_edge",
            ULTRA + "test_metric_check_caps_wide_entries")),
    Mutant("ultra.py", "row if es[-1] <= cap else", "row if True else",
           (ULTRA + "test_packed_checks_match_oracles_at_the_field_width_edge",
            ULTRA + "test_metric_check_caps_wide_entries")),
    Mutant("ultra.py", "_CAP_BITS = 62", "_CAP_BITS = 63",
           (ULTRA + "test_packed_checks_match_oracles_at_the_field_width_edge",)),
    Mutant("ultra.py", "(next(compress(range(n), map(d.__gt__, map(add, exact[i], exact[j]))))\n"
           "                         if min(map(add, exact[i], exact[j])) < d else -1)",
           "-1", (ULTRA + "test_metric_check_caps_wide_entries",)),
    # with <=, k = i always passes the filter and the search for a failing k finds none
    Mutant("ultra.py", "min(map(add, exact[i], exact[j])) < d",
           "min(map(add, exact[i], exact[j])) <= d",
           (ULTRA + "test_metric_check_caps_wide_entries",)),
    Mutant("ultra.py", "((packed[i] + packed[j]) | g)", "(packed[i] + packed[j])",
           (ULTRA + "test_finite_space_reports_first_failing_triple",
            ULTRA + "test_packed_checks_match_oracles_at_the_field_width_edge")),
    Mutant("ultra.py", "- d * ones & g) // w\n", "- d * ones & g) // w - 1\n",
           (ULTRA + "test_finite_space_reports_first_failing_triple",
            ULTRA + "test_packed_checks_match_oracles_at_the_field_width_edge")),
    Mutant("ultra.py", "(len(entries) - 1).bit_length() + 1", "(len(entries) - 1).bit_length()",
           (ULTRA + "test_packed_checks_match_oracles_at_the_field_width_edge",)),
    Mutant("ultra.py", "(((x | g) - y) & g for", "((x - y) & g for",
           (ULTRA + "test_packed_checks_match_oracles_at_the_field_width_edge",
            ULTRA + "test_reports_match_fraction_oracles")),
    Mutant("ultra.py", "((int.from_bytes(row, byteorder) | guards) - t * ones & guards)",
           "(int.from_bytes(row, byteorder) - t * ones & guards)",
           (ULTRA + "test_packed_checks_match_oracles_at_the_field_width_edge",
            ULTRA + "test_ball_radius_boundaries")),
    Mutant("ultra.py", "t = bisect_left(", "t = bisect_right(",
           (ULTRA + "test_packed_checks_match_oracles_at_the_field_width_edge",
            ULTRA + "test_ball_radius_boundaries")),
    Mutant("ultra.py", "k = _low(tops) // w + j + 1", "k = _low(tops) // w + j",
           (ULTRA + "test_raised_merge_tree_witness_matches_the_scan_oracle",
            ULTRA + "test_reports_match_fraction_oracles")),
    Mutant("ultra.py", "k = _low(distinct) // w + j + 1", "k = _low(distinct) // w + j + 2",
           (ULTRA + "test_reports_match_fraction_oracles",)),
    # a pair's first differing level is the field of the XOR's highest set bit, and its rank
    # is read from one lookup by that bit's position
    Mutant("ultra.py", "depth - (h - 1) // b", "depth - h // b",
           (ULTRA + "test_separation_levels_match_pair_oracle",
            ULTRA + "test_ultrametric_from_covers_examples")),
    Mutant("ultra.py", "for h in range(1, b * depth + 1)", "for h in range(b * depth + 1)",
           (ULTRA + "test_separation_levels_match_pair_oracle",
            ULTRA + "test_ultrametric_from_covers_examples")),
    # a piece's diameter may equal 1/2^(i+1): only a rank past that entry is too wide
    Mutant("ultra.py", "top = bisect_right(", "top = bisect_left(",
           (ULTRA + "test_build_cover_sequence_names_a_wide_block_as_an_internal_error",)),
    # base equality, the empty space and unhashable points
    Mutant("ultra.py",
           '        raise RuntimeError(f"internal error: {odd} is a ball or a block, not both")',
           "        pass", (ULTRA + "test_base_equality_mismatch_is_an_internal_error",)),
    Mutant("ultra.py", "if balls != base:", "if balls - base:",
           (ULTRA + "test_base_equality_mismatch_is_an_internal_error",)),
    Mutant("ultra.py", '    if not points:\n        raise ValueError("need at least one point")\n',
           "", (CLI + "test_empty_space_exits_one_in_every_file_command",
                ULTRA + "test_table_from_json_matches_fraction_oracle")),
    Mutant("ultra.py",
           '        if not self.ground:\n            raise ValueError("need at least one point")\n',
           "", (CLI + "test_empty_space_exits_one_in_every_file_command",
                ULTRA + "test_cover_sequence_matches_peel_oracle",
                ULTRA + "test_separation_levels_match_pair_oracle")),
    Mutant("ultra.py", "        except TypeError:\n            raise _unhashable(pts) from None",
           "        except KeyError:\n            raise _unhashable(pts) from None",
           (ULTRA + "test_unhashable_ids_are_named",)),
    # the ball image of statement 5
    Mutant("homeo.py", '            raise RuntimeError(f"internal error: word {prefix + ext} leaves {iv}")',
           "            pass", ("tests/test_homeo.py::test_escaping_sample_is_an_internal_error",)),
    # the one budgeted fold
    Mutant("cf.py", "        if state[1] >= _DIGITS_CAP:\n            raise ValueError(f\"result exceeds "
           "the {MAX_DIGITS}-digit budget; use a lower depth\")\n", "",
           ("tests/test_cf.py::test_fold_word_matches_fold_and_refuses_once_q_reaches_the_budget",
            CLI + "test_cf_eval_stops_folding_once_past_the_budget",
            CLI + "test_deep_commands_stop_folding_once_past_the_budget",
            "tests/test_cover.py::test_members_past_the_digit_budget_are_refused",
            "tests/test_homeo.py::test_deep_intervals_past_the_digit_budget_are_refused")),
    Mutant("cf.py", "if state[1] >= _DIGITS_CAP:", "if state[1] > _DIGITS_CAP:",
           ("tests/test_cf.py::test_fold_word_matches_fold_and_refuses_once_q_reaches_the_budget",)),
    Mutant("cf.py", "if state[1] >= _DIGITS_CAP:", "if state[0] >= _DIGITS_CAP:",
           ("tests/test_cf.py::test_fold_word_matches_fold_and_refuses_once_q_reaches_the_budget",)),
    Mutant("homeo.py", "return Baire2Prefix(expand_surd(x, depth))",
           "from .cover import locate\n    return Baire2Prefix(locate(x, depth).word)",
           (CLI + "test_homeo_inv_reads_deep_digits_with_no_fold",)),
    Mutant("cover.py", "str(n): format_rational(v) for n, v in", "str(n): str(v) for n, v in",
           (CLI + "test_cover_verify_maxima_past_the_digit_budget_exit_one",)),
    Mutant("cover.py",
           '    if level < 0:\n        raise ValueError(f"level must be >= 0, got {level}")\n',
           "", (CLI + "test_cover_show_and_locate", "tests/test_cover.py::test_locate_examples")),
    # cover verify refuses maxima that cannot print before it walks
    Mutant("cli.py", "while level < max_level and g < _DIGITS_CAP:",
           "while level < max_level and g > _DIGITS_CAP:", (CLI + UNPRINTABLE,)),
    Mutant("cli.py", "f, g, level = 1, 1, 0", "f, g, level = 0, 1, 0", (CLI + UNPRINTABLE,)),
    Mutant("cli.py", "        _format_ratio(1, f * g)\n", "", (CLI + UNPRINTABLE,)),
    # the command table: a leading minus reads as a rational, and every row is a leaf
    Mutant("cli.py", "sp._negative_number_matcher = _NEGATIVE_RATIONAL", "pass",
           (CLI + "test_cf_negative_rational_needs_no_separator",)),
    Mutant("cli.py", '    (None, "embed", "isometric digit streams for a space file", _SPACE_FILE,\n'
           "     _cmd_embed, _text_embed),\n", "",
           (CLI + "test_every_leaf_has_a_golden_and_a_readme_example",
            CLI + "test_every_leaf_command_renders_in_both_modes",
            CLI + "test_no_output_depends_on_the_hash_seed")),
    # each leaf parses the words after its name; the tree reports what it leaves over
    Mutant("cli.py", "            if not rest:\n                return args\n",
           "            return args\n",
           (CLI + "test_usage_errors_exit_code_two",
            CLI + "test_the_leaf_parser_agrees_with_the_whole_tree")),
    Mutant("cli.py", "leaf.parse_known_args(argv[len(key):])",
           "leaf.parse_known_args(argv[len(key) - 1:])",
           (CLI + "test_usage_errors_exit_code_two",
            CLI + "test_one_shot_process_matches_goldens",
            CLI + "test_the_leaf_parser_agrees_with_the_whole_tree")),
    # CLI caps and argument checks
    Mutant("cli.py", '_capped(r.denominator // r.numerator, "cylinder length")',
           '_capped(r.denominator // r.numerator + 1, "cylinder length")',
           (CLI + "test_baire_ball",)),
    Mutant("cli.py", '_capped(r.denominator // r.numerator, "cylinder length")',
           '_capped(r.denominator // r.numerator - 1, "cylinder length")',
           (CLI + "test_baire_ball",)),
    Mutant("cli.py", '        check_digit_budget(text, f"{path}: JSON integer")\n', "",
           (CLI + "test_input_integers_past_the_digit_budget_exit_one",)),
    # the digit budget follows a lower interpreter limit; only a child process sees it
    Mutant("rational.py", 'min(4300, getattr(sys, "get_int_max_str_digits", int)() or 4300)',
           "4300", (CLI + "test_a_lower_interpreter_digit_limit_is_the_budget",)),
    # the export map
    Mutant("__init__.py", '"sierpinski_embed", ', "",
           (EXPORTS + "test_every_public_name_is_its_modules_object_once",
            EXPORTS + "test_readme_quick_tour_runs")),
    Mutant("__init__.py",
           "        raise AttributeError(f\"module {__name__!r} has no attribute {name!r}\")",
           "        return None", (EXPORTS + "test_an_unknown_name_raises_attribute_error",)),
    # an empty partial point names index 0
    Mutant("baire.py", 'f"{len(self.entries)} and no tail', 'f"{len(self.entries) - 1} and no tail',
           ("tests/test_baire.py::test_prefix_extraction",
            "tests/test_front_end.py::test_first_difference_and_prefix_match_the_oracle")),
]

EQUIVALENT = [
    Equivalent("ultra.py", "all(_centered(balls) for _, balls in _ball_sweep(table))",
               "all(_centered(balls) for _, balls in islice(_ball_sweep(table), 1, None))",
               "the first radius is the least positive distance, whose open balls are the "
               "singletons, and singletons are centered in every table"),
    Equivalent("ultra.py", "all(_centered(balls) for _, balls in _ball_sweep(table))",
               "all(_centered(balls) for _, balls in list(_ball_sweep(table))[:-1])",
               "the last radius is past the largest distance, where every ball is the whole "
               "space, and the whole space is centered in every table"),
    Equivalent("cli.py", "for key in (tuple(argv[:2]), tuple(argv[:1])):",
               "for key in (tuple(argv[:1]), tuple(argv[:2])):",
               "a one-word key could shadow a two-word key only if a top-level leaf shared "
               "its name with a group, and top-level names are unique: `embed` names no group"),
]


def occurrences(src: Path, m: Mutant | Equivalent) -> int:
    return (src / "bairecf" / m.path).read_text(encoding="utf-8").count(m.fragment)


def _copy(tmp: str) -> Path:
    dest = Path(tmp) / "src"
    shutil.copytree(SRC, dest, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def _failed(src: Path, tests) -> set[str]:
    """The named tests that fail with the package imported from src."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                          *tests], cwd=ROOT, env=env, capture_output=True, text=True)
    if run.returncode not in (0, 1):
        raise SystemExit(f"pytest exited {run.returncode}:\n{run.stdout}{run.stderr}")
    return set(re.findall(r"^FAILED (\S+)", run.stdout, re.M))


def main(argv: list[str]) -> int:
    misplaced = [m for m in MUTANTS + EQUIVALENT if occurrences(SRC, m) != 1]
    for m in misplaced:
        print(f"{m.path}: fragment occurs {occurrences(SRC, m)} times: {m.fragment!r}")
    if misplaced or argv == ["--check"]:
        print(f"{len(MUTANTS) + len(EQUIVALENT) - len(misplaced)} of "
              f"{len(MUTANTS) + len(EQUIVALENT)} fragments occur exactly once")
        return 1 if misplaced else 0
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        broken = _failed(_copy(tmp), sorted({t for m in MUTANTS for t in m.tests}))
    if broken:
        print("fail before any mutant: " + ", ".join(sorted(broken)))
        return 1
    survived = 0
    for i, m in enumerate(MUTANTS):
        with tempfile.TemporaryDirectory() as tmp:
            target = _copy(tmp) / "bairecf" / m.path
            text = target.read_text(encoding="utf-8")
            if text.count(m.fragment) != 1:
                raise SystemExit(f"mutant {i}: fragment does not occur exactly once")
            target.write_text(text.replace(m.fragment, m.replacement), encoding="utf-8")
            missed = set(m.tests) - _failed(target.parent.parent, m.tests)
        survived += bool(missed)
        verdict = "SURVIVED, passing " + ", ".join(sorted(missed)) if missed else "caught"
        print(f"mutant {i} ({m.path}: {m.fragment.strip()[:50]!r}): {verdict}")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants caught, "
          f"{len(EQUIVALENT)} recorded as equivalent, in {time.monotonic() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
