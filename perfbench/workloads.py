"""The benchmark's workloads: seeded inputs, one pass of work, output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. In-process workloads call ntdice through
its module attributes at call time (``search.enumerate_words``), so the
tracer's wrappers see those calls as well.

Expected values are pinned here. The census tuples are the frozen oracle
numbers; the digests freeze lexicographic word order, the lexicographically
first realization witnesses and byte-identical CLI output. Seeded CLI inputs
get their expected output from ``reference_verdict``, which recomputes the
verdict without ntdice.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time

import ntdice.cli  # noqa: F401  (loaded so the tracer can wrap cli's functions)
import ntdice.construct
import ntdice.core
import ntdice.search

ALPHABET = "abcdefghijklmnopqrstuvwxyz"
HERE = os.path.dirname(os.path.abspath(__file__))

# Five vertices at n=3 span 168,168,000 words, above ntdice's default budget
# of 10**8; whatever the budget comes to count, this one clears the probe.
REALIZATION_BUDGET = 10 ** 9

# (argv, exit code, SHA-256 of stdout) of the invocations whose output does
# not depend on the seed.
CLI_FIXED = [
    (("verify", "acbbaccba"), 0, "666af063715f91fa1c6f61374ce911612a6bb36832b27aea98ee1e7b6944c7dd"),
    (("gen", "--sides", "3000", "--dice", "3", "--format", "json"), 0, "6cac1ff2ba04b96972ae1bdef33178e0d3798c0117f9cf7dc65a15fe658555cb"),
    (("gen", "--sides", "3000", "--dice", "4", "--format", "json"), 0, "a5463705c26f3e1e92dd88f29b2483cf6de41f3ff6ffdb14450f09c047c8c652"),
    (("fib", "--k", "21", "--balanced"), 0, "0cbf8ffaa8004e51adaeee4764ef1faebdaa86738e12848bbb885469fb6ae781"),
    (("search", "--sides", "4", "--count"), 0, "94c204a5509123eb9681cee4fff10fe58b56206f0371d44a5634ae826741f104"),
    (("search", "--sides", "3", "--list", "--irreducible-only"), 0, "058995e2b3e4c9fcefe4608c66319e65c923d4dd29051037dc20e19cc47974d8"),
    (("realize", "--tournament", "1>2,2>3,3>1", "--sides", "5"), 0, "c43fcbff2832d1535f8aa7765fee2132015ef09235085a2877d4612bc34b7989"),
    (
        ("realize", "--tournament", "1>2,2>3,3>4,4>1,3>1,2>4", "--sides", "3"),
        0,
        "16d7e6f4091cf245a29a654ad484d3027c07cd9b2738b38e179ca3a887ceeda7",
    ),
]

# Each size's expected values. "toy" is for ``run.py --self-check``.
EXPECTED = {
    "census": {
        # (n, m) -> (total, balanced, non-transitive, BNT, irreducible BNT)
        "full": {
            (5, 3): (756756, 1830, 5196, 915, 915),
            (3, 4): (369600, 296, 680, 148, 148),
        },
        "toy": {
            (3, 3): (1680, 12, 15, 6, 6),
            (2, 4): (2520, 72, 0, 0, 0),
        },
    },
    "scan": {
        "full": {
            # (n, BNT words, irreducible, SHA-256 of the word stream)
            "m3": (6, 5730, 5694, "776edd5a307501bde0166063062c064b18fae0b3c711b596e944ae375c99b7c1"),
            # (n, BNT words, SHA-256 of the word stream)
            "m4": (3, 148, "f9a18327f02faea2fb0e8c67d5317567378fbb7acc30ce44160260aa8eb08456"),
            "vertices": 5,
            # smallest realizing n -> tournaments; witness digest over all
            "sides": {1: 120, 3: 904},
            "witnesses": "8ffd9b10eee737df8b8a2ad962d3d1c645b7faa519c1498ce1fe086107c19dcc",
        },
        "toy": {
            "m3": (4, 18, 18, "04e8552c6ddc155afc91140cc56621bcf78253d5fd8bd314ea0a53bf8dcd4f46"),
            "m4": (2, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            "vertices": 4,
            "sides": {1: 24, 3: 40},
            "witnesses": "0b6461ee8668d22da3433f2f27322f4a298212b8ca5eed819557714c1d6f08e9",
        },
    },
    "cli": {
        # Sides of the seeded verify inputs, and the invocations whose
        # output does not depend on the seed.
        "full": {"sides": 3000, "fixed": CLI_FIXED},
        "toy": {"sides": 30, "fixed": CLI_FIXED},
    },
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def stream_digest(lines):
    return sha256("\n".join(lines).encode())


class PassLog:
    """Timings and check results from one pass.

    ``ops`` maps each operation of the pass to its (start, end)
    ``perf_counter`` readings; the same operation has the same key in every
    pass. ``checkpoint`` lets the speedometer calibrate between operations.
    """

    def __init__(self, speedometer):
        self.checkpoint = speedometer.checkpoint
        self.ops = {}
        self.checks = 0
        self.failures = []
        self.process_s = []  # cli, traced: invocation wall minus cli.main

    def check(self, ok, what):
        self.checks += 1
        if not ok:
            self.failures.append(what)


def checked(log, what, call):
    """Run ``call``; an exception counts as a failed check."""
    try:
        return call()
    except Exception as exc:  # a crash in the program is a failed operation
        log.check(False, f"{what}: {type(exc).__name__}: {exc}")
        return None


# -- census ------------------------------------------------------------------

def prepare_census(expected, seed, workdir):
    jobs = sorted(expected.items())
    random.Random(seed).shuffle(jobs)
    return jobs


def census_pass(jobs, log, tracer=None):
    for (n, m), expected in jobs:
        what = f"census n={n} m={m}"
        log.checkpoint()
        start = time.perf_counter()
        census = checked(log, what, lambda: ntdice.search.enumerate_words(n, m, jobs=1))
        log.ops[what] = (start, time.perf_counter())
        if census is not None:
            got = (
                census.total_words,
                census.balanced,
                census.nontransitive,
                census.balanced_nontransitive,
                census.irreducible_bnt,
            )
            log.check(got == expected, f"{what}: {got} != {expected}")


# -- scan --------------------------------------------------------------------

def tournaments(m):
    """Every orientation of the complete graph on m vertices, by edge mask."""
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    for mask in range(1 << len(pairs)):
        edges = [(i, j) if mask >> k & 1 else (j, i) for k, (i, j) in enumerate(pairs)]
        yield mask, ntdice.search.Tournament.from_edges(m, edges)


def prepare_scan(expected, seed, workdir):
    order = list(tournaments(expected["vertices"]))
    random.Random(seed).shuffle(order)
    return {"expected": expected, "tournaments": order}


def word_letters(dice_set):
    """The word of a dice set, computed here rather than by ntdice."""
    letters = [""] * (dice_set.m * dice_set.n)
    for die, row in enumerate(dice_set.dice):
        for label in row:
            letters[label - 1] = ALPHABET[die]
    return "".join(letters)


def is_ascending(words):
    return all(a < b for a, b in zip(words, words[1:]))


def scan_words(n, m):
    """Collect the BNT word stream; for m=3 test each word for irreducibility."""
    words = []
    irreducible = 0
    for letters in ntdice.search.balanced_nontransitive_words(n, m):
        words.append(letters)
        if m == 3 and ntdice.search.is_irreducible(ntdice.core.Word(letters, m)):
            irreducible += 1
    return words, irreducible


def scan_pass(plan, log, tracer=None):
    expected = plan["expected"]
    n3, count3, irreducible3, digest3 = expected["m3"]
    got = checked(log, "scan m=3", lambda: scan_words(n3, 3))
    if got is not None:
        words, irreducible = got
        summary = (len(words), irreducible, stream_digest(words))
        log.check(
            summary == (count3, irreducible3, digest3) and is_ascending(words),
            f"scan n={n3} m=3: {summary[:2]} != {(count3, irreducible3)} or order changed",
        )
    n4, count4, digest4 = expected["m4"]
    log.checkpoint()
    got = checked(log, "scan m=4", lambda: scan_words(n4, 4))
    if got is not None:
        words = got[0]
        log.check(
            (len(words), stream_digest(words)) == (count4, digest4) and is_ascending(words),
            f"scan n={n4} m=4: {len(words)} words != {count4} or order changed",
        )

    witnesses = {}
    sides = {}
    for mask, tournament in plan["tournaments"]:
        what = f"realize tournament {mask}"

        def smallest_realization():
            for n in (1, 2, 3):
                found = ntdice.search.search_realization(
                    tournament, n, budget=REALIZATION_BUDGET
                )
                if found is not None:
                    break
            return n, found

        log.checkpoint()
        start = time.perf_counter()
        result = checked(log, what, smallest_realization)
        log.ops[mask] = (start, time.perf_counter())
        if result is None:
            continue
        n, found = result
        if found is None:
            log.check(False, f"{what}: no witness with n <= 3")
            continue
        log.check(ntdice.search.majority_digraph(found) == tournament.edges, what)
        witnesses[mask] = f"{mask}:{n}:{word_letters(found)}"
        sides[n] = sides.get(n, 0) + 1
    digest = stream_digest([witnesses[mask] for mask in sorted(witnesses)])
    log.check(
        sides == expected["sides"] and digest == expected["witnesses"],
        f"witnesses: sides {sides} != {expected['sides']} or digest changed",
    )


# -- cli ---------------------------------------------------------------------

def reference_verdict(rows):
    """The ``verify --format json`` document for ``rows``, computed without
    ntdice: face sums, and win counts read off the word in one pass."""
    m, n = len(rows), len(rows[0])
    owner = [0] * (m * n)
    for die, row in enumerate(rows):
        for label in row:
            owner[label - 1] = die
    seen = [0] * m
    cycle = [0] * m  # wins of die x over die x+1
    sums = [0] * m
    for position, die in enumerate(owner, start=1):
        cycle[die] += seen[(die + 1) % m]
        sums[die] += position
        seen[die] += 1
    trials = n * n
    if m == 3:
        method, balanced, wins = "face-sum", len(set(sums)) == 1, cycle[0]
    else:
        method, balanced, wins = "cycle", len(set(cycle)) == 1, cycle[0]
    odds = relabel = None
    if not balanced:
        verdict = "unbalanced"
    elif 2 * wins == trials:
        verdict = "balanced-fair"
    elif 2 * wins > trials:
        verdict = "balanced-nontransitive"
    else:
        verdict = "balanced-reverse"
        relabel = [ALPHABET[0]] + [ALPHABET[i] for i in range(m - 1, 0, -1)]
    if balanced:
        odds = {"wins": wins, "trials": trials, "display": f"{wins}/{trials}"}
    return {
        "schema": "dice-verdict/1",
        "m": m,
        "n": n,
        "verdict": verdict,
        "method": method,
        "face_sums": sums,
        "odds": odds,
        "suggested_relabeling": relabel,
    }


def seeded_inputs(sides, rng):
    """Dice rows for the verify inputs: the constructed 3- and 4-dice sets,
    cyclically relabelled (which keeps them balanced non-transitive), and a
    random partition of 1..3n into three dice."""
    inputs = []
    for m in (3, 4):
        dice = ntdice.construct.construct_balanced_nontransitive(sides, m).dice
        shift = rng.randrange(m)
        inputs.append([list(dice[(i + shift) % m]) for i in range(m)])
    labels = list(range(1, 3 * sides + 1))
    rng.shuffle(labels)
    inputs.append([labels[i * sides:(i + 1) * sides] for i in range(3)])
    for rows in inputs:
        for row in rows:
            rng.shuffle(row)  # label order within a die is free in the input
    return inputs


def prepare_cli(expected, seed, workdir):
    rng = random.Random(seed)
    invocations = []
    for index, rows in enumerate(seeded_inputs(expected["sides"], rng)):
        path = os.path.join(workdir, f"verify-{index}.json")
        doc = {
            "schema": "dice-set/1",
            "m": len(rows),
            "n": len(rows[0]),
            "dice": {ALPHABET[i]: row for i, row in enumerate(rows)},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        verdict = reference_verdict(rows)
        stdout = json.dumps(verdict, indent=2) + "\n"
        code = 0 if verdict["verdict"] == "balanced-nontransitive" else 1
        invocations.append((("verify", path, "--format", "json"), code, sha256(stdout.encode())))
    invocations.extend(expected["fixed"])
    return {"invocations": invocations, "rng": rng, "workdir": workdir}


def cli_pass(plan, log, tracer=None):
    """Run the invocation mix in a seeded order, one fresh process at a time.

    Traced passes start each process through ``traced_cli.py``, which
    records the child's spans in a file that is read back here.
    """
    order = list(plan["invocations"])
    plan["rng"].shuffle(order)
    spans_path = os.path.join(plan["workdir"], "child-spans.json")
    for argv, code, digest in order:
        what = "ntdice " + " ".join(argv)
        if tracer is None:
            command = [sys.executable, "-m", "ntdice", *argv]
        else:
            command = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path, *argv]
        log.checkpoint()
        start = time.perf_counter()
        proc = checked(
            log,
            what,
            lambda: subprocess.run(command, capture_output=True, timeout=120),
        )
        end = time.perf_counter()
        log.ops[argv] = (start, end)
        if proc is None:
            continue
        log.check(
            proc.returncode == code and sha256(proc.stdout) == digest,
            f"{what}: exit {proc.returncode} (want {code}) or stdout changed",
        )
        if tracer is not None:
            with open(spans_path, encoding="utf-8") as handle:
                child = json.load(handle)
            main_busy = sum(row[4] for row in child["spans"] if row[1] == "cli.main")
            log.process_s.append(end - start - main_busy)
            tracer.absorb(child["spans"], child["counters"])


# Workload -> (prepare(expected, seed, workdir) -> plan, run_pass(plan, log, tracer)).
WORKLOADS = {
    "census": (prepare_census, census_pass),
    "scan": (prepare_scan, scan_pass),
    "cli": (prepare_cli, cli_pass),
}
