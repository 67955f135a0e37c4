"""Command-line front end: verify, gen, fib, search, realize.

Exit codes are uniform across commands: 0 for a positive result (balanced
non-transitive verdict, successful construction, witness found), 1 for a
negative result, 2 for usage or parse errors. JSON output is canonical:
fixed key order, labels descending, and odds always as exact integer pairs
with a ``display`` string, never floats.

``main`` is the one error boundary. Commands and parsers raise; ``main``
turns any ``DiceError`` (``InputError`` included) into one ``error:`` line
on stderr and exit 2, and a reader closing the pipe into a quiet exit 0.
A message that echoes a long input is cut to 200 characters, ending in …,
so the line stays readable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import (
    ALPHABET,
    Classification,
    DiceSet,
    WinOdds,
    Word,
    _is_plain_int,
    cycle_odds,
    dice_of_word,
    face_sums,
    integer,
    validate_dice,
    verify,
    win_probability,
)
from .construct import construct_balanced_nontransitive, fibonacci_balanced, fibonacci_savage
from .errors import DiceError, MalformedWord
from .search import (
    DEFAULT_BUDGET,
    Tournament,
    balanced_nontransitive_words,
    enumerate_words,
    is_irreducible,
    iter_words,
    realize_k3,
    search_realization,
)

DICE_SCHEMA = "dice-set/1"
VERDICT_SCHEMA = "dice-verdict/1"
CENSUS_SCHEMA = "dice-census/1"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2

# Longest error message printed whole. Longer ones come from echoing a long
# input; they are cut to this width, ending in an ellipsis.
_ERROR_WIDTH = 200

# The census fields in output order, as (JSON key and Census field, text label).
_CENSUS_FIELDS = (
    ("n", "n"),
    ("m", "m"),
    ("total_words", "total-words"),
    ("balanced", "balanced"),
    ("nontransitive", "nontransitive"),
    ("balanced_nontransitive", "balanced-nontransitive"),
    ("irreducible_bnt", "irreducible"),
)


class InputError(DiceError):
    """Input that cannot be parsed as dice, a word, or a document."""


# -- input parsing ------------------------------------------------------------

def parse_dice_input(text: str) -> DiceSet:
    """Accept a JSON document, ``a: 9 5 1`` rows, or a bare word."""
    stripped = text.strip()
    if not stripped:
        raise InputError("empty input")
    if stripped.startswith("{"):
        return _parse_document(stripped)
    if ":" in stripped:
        return _parse_rows(stripped)
    try:
        return dice_of_word(Word.from_string(stripped))
    except MalformedWord as exc:
        raise InputError(f"bad word: {exc}") from exc


def _parse_document(text: str) -> DiceSet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"bad JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (RecursionError, ValueError) as exc:  # too deep, or too many digits
        raise InputError(f"bad JSON: {exc}") from exc
    # Text starting with "{" that json.loads accepts is always an object.
    if doc.get("schema") != DICE_SCHEMA:
        raise InputError(f"expected schema {DICE_SCHEMA!r}, got {doc.get('schema')!r}")
    dice = doc.get("dice")
    if not isinstance(dice, dict) or not dice:
        raise InputError("document field 'dice' must map letters to label arrays")
    rows = _in_letter_order(dice)
    for ch, row in zip(ALPHABET, rows):
        if not isinstance(row, list):
            raise InputError(f"die {ch!r} must be a label array, got {json.dumps(row)}")
    result = validate_dice(rows)
    for field in ("m", "n"):
        if field not in doc:
            continue
        if not _is_plain_int(doc[field]):  # not 3.0, not true
            raise InputError(
                f"document field {field!r} must be an integer, "
                f"got {json.dumps(doc[field])}"
            )
        if doc[field] != getattr(result, field):
            raise InputError(
                f"document field {field!r} is {doc[field]}, "
                f"but the dice imply {getattr(result, field)}"
            )
    return result


def _parse_rows(text: str) -> DiceSet:
    rows: dict[str, list[int]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        for segment in line.split("/"):
            segment = segment.strip()
            if not segment:
                continue
            head, _, tail = segment.partition(":")
            letter = head.strip().lower()
            if len(letter) != 1 or letter not in ALPHABET:
                raise InputError(f"line {lineno}: bad die name {head.strip()!r}")
            if letter in rows:
                raise InputError(f"line {lineno}: die {letter!r} given twice")
            labels = []
            for token in tail.split():
                try:
                    labels.append(integer(token))
                except ValueError:
                    raise InputError(f"line {lineno}: bad label {token!r} on die {letter!r}")
            rows[letter] = labels
    if not rows:
        raise InputError("no dice rows found")
    return validate_dice(_in_letter_order(rows))


def _in_letter_order(named: dict) -> list:
    """The rows of a die name -> labels mapping, in letter order; the names
    must be exactly a, b, c, ... up to the number of dice."""
    expected = list(ALPHABET[: len(named)])
    if sorted(named) != expected:
        raise InputError(f"dice must be named {expected}, got {sorted(named)}")
    return [named[ch] for ch in expected]


def _read_input(source: str) -> str:
    """stdin for ``-``, the text of the file ``source`` names, else ``source``.

    An existing path always wins over inline text, so a file named like a
    word is read, not parsed as that word. stdin and files are decoded as
    strict UTF-8 whatever the locale.
    """
    if source != "-" and not os.path.exists(source):
        return source
    try:
        if source == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        with open(source, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        name = "stdin" if source == "-" else source
        reason = getattr(exc, "strerror", None) or exc
        raise InputError(f"cannot read {name}: {reason}") from exc


# -- output rendering ---------------------------------------------------------

def _odds_json(odds: WinOdds) -> dict:
    return {"wins": odds.wins, "trials": odds.trials, "display": odds.display}


def dice_document(dice_set: DiceSet, annotations: dict | None = None) -> dict:
    doc = {
        "schema": DICE_SCHEMA,
        "m": dice_set.m,
        "n": dice_set.n,
        "dice": {ALPHABET[i]: list(row) for i, row in enumerate(dice_set.dice)},
    }
    if annotations:
        doc["annotations"] = annotations
    return doc


def _pair_odds(triples) -> list[dict]:
    """One ``{"pair": "a>b", wins, trials, display}`` row per (i, j, odds)."""
    return [
        {"pair": f"{ALPHABET[i]}>{ALPHABET[j]}", **_odds_json(odds)}
        for i, j, odds in triples
    ]


def _cycle_odds_annotation(dice_set: DiceSet) -> list[dict]:
    return _pair_odds(
        (i, (i + 1) % dice_set.m, odds) for i, odds in enumerate(cycle_odds(dice_set))
    )


def _render_dice_text(dice_set: DiceSet, annotations: dict | None = None) -> str:
    lines = [
        f"{ALPHABET[i]}: " + " ".join(str(v) for v in row)
        for i, row in enumerate(dice_set.dice)
    ]
    for key, value in (annotations or {}).items():
        if key in ("cycle_odds", "pairwise_odds"):
            pretty = ", ".join(f"{o['pair']} {o['display']}" for o in value)
            lines.append(f"# {key.replace('_', ' ')}: {pretty}")
        elif key == "face_sums":
            lines.append(f"# face sums: {' '.join(str(v) for v in value)}")
        else:
            lines.append(f"# {key.replace('_', ' ')}: {value}")
    return "\n".join(lines)


def _emit_dice(dice_set: DiceSet, annotations: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(dice_document(dice_set, annotations), indent=2))
    else:
        print(_render_dice_text(dice_set, annotations))


# -- subcommands ---------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    dice_set = parse_dice_input(_read_input(args.input))
    verdict = verify(dice_set)
    sums = face_sums(dice_set)
    if args.format == "json":
        doc = {
            "schema": VERDICT_SCHEMA,
            "m": dice_set.m,
            "n": dice_set.n,
            "verdict": verdict.classification.value,
            "method": verdict.method,
            "face_sums": list(sums),
            "odds": _odds_json(verdict.witness_odds) if verdict.witness_odds else None,
            "suggested_relabeling": (
                [ALPHABET[i] for i in verdict.suggested_relabeling]
                if verdict.suggested_relabeling
                else None
            ),
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"verdict: {verdict.classification.value}")
        print(f"face-sums: {' '.join(str(s) for s in sums)}")
        if verdict.witness_odds is not None:
            print(f"odds: {verdict.witness_odds.display}")
        if verdict.suggested_relabeling is not None:
            order = " ".join(ALPHABET[i] for i in verdict.suggested_relabeling)
            print(f"suggestion: reorder dice as {order}")
    positive = verdict.classification is Classification.BALANCED_NONTRANSITIVE
    return EXIT_OK if positive else EXIT_NEGATIVE


def cmd_gen(args: argparse.Namespace) -> int:
    dice_set = construct_balanced_nontransitive(args.sides, args.dice)
    annotations = {
        "command": f"gen --sides {args.sides} --dice {args.dice}",
        "cycle_odds": _cycle_odds_annotation(dice_set),
        "face_sums": list(face_sums(dice_set)),
    }
    _emit_dice(dice_set, annotations, args.format)
    return EXIT_OK


def cmd_fib(args: argparse.Namespace) -> int:
    if args.balanced:
        dice_set = fibonacci_balanced(args.k)
    else:
        dice_set = fibonacci_savage(args.k)
    flag = " --balanced" if args.balanced else ""
    annotations = {
        "command": f"fib --k {args.k}{flag}",
        "face_sums": list(face_sums(dice_set)),
        "cycle_odds": _cycle_odds_annotation(dice_set),
    }
    _emit_dice(dice_set, annotations, args.format)
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    if args.irreducible_only and not args.list:
        raise InputError("--irreducible-only requires --list")
    if args.list:
        if args.irreducible_only:
            for letters in balanced_nontransitive_words(
                args.sides, args.dice, budget=args.budget
            ):
                if is_irreducible(Word(letters, args.dice)):
                    print(letters)
        else:
            for letters in iter_words(args.sides, args.dice, budget=args.budget):
                print(letters)
        return EXIT_OK
    census = enumerate_words(args.sides, args.dice, budget=args.budget, jobs=args.jobs)
    if args.format == "json":
        doc = {"schema": CENSUS_SCHEMA}
        doc.update((key, getattr(census, key)) for key, _ in _CENSUS_FIELDS)
        print(json.dumps(doc, indent=2))
    else:
        for key, label in _CENSUS_FIELDS:
            print(f"{label}: {getattr(census, key)}")
    return EXIT_OK


def cmd_realize(args: argparse.Namespace) -> int:
    tournament = Tournament.from_text(args.tournament)
    if tournament.m == 3:
        dice_set = realize_k3(tournament, args.sides)
    else:
        dice_set = search_realization(tournament, args.sides, budget=args.budget)
    if dice_set is None:
        print("none")
        return EXIT_NEGATIVE
    # Both routes guarantee the result realizes the tournament: realize_k3
    # checks it, and the search walk yields only words its per-edge test
    # accepts, which at a full word is the tournament itself.
    annotations = {
        "command": f"realize --tournament {args.tournament} --sides {args.sides}",
        "pairwise_odds": _pair_odds(
            (i, j, win_probability(dice_set, i, j)) for i, j in sorted(tournament.edges)
        ),
    }
    _emit_dice(dice_set, annotations, args.format)
    return EXIT_OK


# -- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntdice",
        description="Construct, verify, and search balanced non-transitive dice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each option shared by several commands, declared once as a parent.
    fmt, sides, budget = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    sides.add_argument("--sides", type=integer, required=True)
    budget.add_argument("--budget", type=integer, default=DEFAULT_BUDGET)

    p_verify = sub.add_parser(
        "verify",
        parents=[fmt],
        help="classify dice given as a file, JSON, rows, word, or - (stdin)",
    )
    p_verify.add_argument(
        "input",
        help="file path, '-' for stdin, or inline dice/word; "
        "an existing path is always read as a file",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser(
        "gen", parents=[sides, fmt], help="construct a balanced non-transitive set"
    )
    p_gen.add_argument("--dice", type=integer, default=3)
    p_gen.set_defaults(func=cmd_gen)

    p_fib = sub.add_parser("fib", parents=[fmt], help="Fibonacci block constructions")
    p_fib.add_argument("--k", type=integer, required=True, help="Fibonacci index, f(1)=f(2)=1")
    p_fib.add_argument(
        "--balanced", action="store_true", help="apply the balancing swap (odd k >= 5)"
    )
    p_fib.set_defaults(func=cmd_fib)

    p_search = sub.add_parser(
        "search", parents=[sides, budget, fmt], help="exhaustive census or word listing"
    )
    p_search.add_argument("--dice", type=integer, default=3)
    mode = p_search.add_mutually_exclusive_group()
    mode.add_argument("--count", action="store_true", help="print the census (default)")
    mode.add_argument("--list", action="store_true", help="stream words, one per line")
    p_search.add_argument(
        "--irreducible-only",
        action="store_true",
        help="with --list: only irreducible balanced non-transitive words",
    )
    p_search.add_argument(
        "--jobs",
        type=integer,
        default=1,
        help="accepted for compatibility; ignored, results are identical",
    )
    p_search.set_defaults(func=cmd_search)

    p_realize = sub.add_parser(
        "realize", parents=[sides, budget, fmt], help="find dice realizing a tournament"
    )
    p_realize.add_argument(
        "--tournament", required=True, help="directed pairs, e.g. '1>2,2>3,3>1'"
    )
    p_realize.set_defaults(func=cmd_realize)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DiceError as exc:
        message = str(exc)
        if len(message) > _ERROR_WIDTH:
            message = message[: _ERROR_WIDTH - 1] + "…"
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader has gone; what was written is correct. Point stdout at
        # devnull so the interpreter's final flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
