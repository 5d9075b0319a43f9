"""The benchmark's workloads and the moduli each one sweeps for a given seed.

A workload is a list of ``zsindex`` command lines, run in order with the
same arguments a user would type.  Seed 0 gives the default moduli below.
Any other seed draws the same number of moduli from the same gcd(n, 6)
class, factorization shape and size band, keeping only draws whose summed
seed-code cost (``cost_s`` in ``reference.json``) and sequence count are
both within ``BALANCE`` of the default's, so that run-to-run spread of
``sweep_s`` and ``seq_per_s`` reflects the program rather than the draw.
When no other draw qualifies, every seed runs the default moduli.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

CHECKPOINT = "{checkpoint}"  # replaced by a fresh checkpoint path per pass
BALANCE = 0.02


@dataclass(frozen=True)
class Command:
    """One command line and the reference entries its report must match.

    ``kind`` names the reference table (``verify``, ``verify_orbits`` or
    ``search``); ``moduli`` are the moduli its report covers, in order.
    """

    argv: tuple[str, ...]
    kind: str
    moduli: tuple[int, ...]


@dataclass(frozen=True)
class Plan:
    """The inputs of one run: the commands of the timed phase, in order."""

    workload: str
    moduli: tuple[int, ...]
    commands: tuple[Command, ...]
    resume: bool = False  # rerun the phase against its finished checkpoint
    orbits: bool = False
    searches: tuple[int, ...] = ()


def _factor_shape(n: int) -> tuple[int, ...]:
    """Sorted exponents of n's prime factorization, e.g. 175 -> (1, 2)."""
    exps = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            exps.append(e)
        d += 1
    if n > 1:
        exps.append(1)
    return tuple(sorted(exps))


def _coprime6(lo: int, hi: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(n for n in range(lo, hi + 1) if n % 2 and n % 3 and _factor_shape(n) == shape)


# Each workload: the cost table its commands are balanced on, the candidate
# pool of every slot (one slot per modulus), and the seed-0 moduli.  Pass
# sizes are chosen so that a 25-second run holds four to seven passes.
SWEEP_COPRIME = {
    "kind": "verify",
    "slots": (
        _coprime6(100, 160, (2,)),  # prime square: only 121
        _coprime6(60, 100, (1, 1)),  # squarefree pq
        _coprime6(60, 100, (1, 1)),
    ),
    "default": (121, 77, 85),
}
SWEEP_ORBITS = {
    "kind": "verify_orbits",
    "slots": (_coprime6(35, 90, (1, 1)),) * 3,
    "default": (55, 65, 77),
}
CONTRAST = {
    "kind": "contrast",
    "slots": (tuple(range(42, 85, 6)),) * 4,  # gcd(n, 6) = 6
    "default": (48, 60, 66, 72),
}
RANGE_RESUME = {
    "kind": "range",
    "lo": tuple(range(5, 10)),
    "hi": tuple(range(44, 57)),
    "default": (7, 50),
}

SMOKE = {
    "sweep-coprime": (25, 35),
    "sweep-orbits": (35,),
    "contrast": (12, 18),
    "range-resume": (7, 15),
}

WORKLOADS = ("sweep-coprime", "sweep-orbits", "contrast", "range-resume")


def reference_moduli() -> dict[str, set[int]]:
    """Every modulus any seed (or the smoke mode) can draw, by reference table."""
    verify = set(itertools.chain(*SWEEP_COPRIME["slots"], SMOKE["sweep-coprime"]))
    contrast = set(itertools.chain(*CONTRAST["slots"], SMOKE["contrast"]))
    rng_lo = min(RANGE_RESUME["lo"] + SMOKE["range-resume"][:1])
    rng_hi = max(RANGE_RESUME["hi"])
    return {
        "verify": verify | contrast | set(range(rng_lo, rng_hi + 1)),
        "verify_orbits": set(itertools.chain(*SWEEP_ORBITS["slots"], SMOKE["sweep-orbits"])),
        "search": contrast,
        "range": set(range(rng_lo, rng_hi + 1)),
    }


def _weights(table: str, moduli, ref: dict) -> tuple[float, int]:
    """Summed seed-code cost and sequences settled by a workload's commands."""
    cost = ref["cost_s"]
    seqs = ref["verify_orbits" if table == "verify_orbits" else "verify"]
    total = sum(seqs[str(n)]["sequences_total"] for n in moduli)
    if table == "contrast":  # verify then search: each settles every sequence
        return sum(cost[f"verify:{n}"] + cost[f"search:{n}"] for n in moduli), 2 * total
    return sum(cost[f"{table}:{n}"] for n in moduli), total


def _draw(spec: dict, seed: int, ref: dict) -> tuple[int, ...]:
    default = spec["default"]
    if seed == 0:
        return default
    table = spec["kind"]
    if table == "range":
        combos = {(lo, hi) for lo in spec["lo"] for hi in spec["hi"]}
        weights = lambda c: _weights(table, range(c[0], c[1] + 1), ref)  # noqa: E731
    else:
        combos = {
            tuple(sorted(c)) for c in itertools.product(*spec["slots"]) if len(set(c)) == len(c)
        }
        weights = lambda c: _weights(table, c, ref)  # noqa: E731
    target = weights(default)
    fits = sorted(
        c for c in combos
        if all(abs(w - t) <= BALANCE * t for w, t in zip(weights(c), target))
    )
    return random.Random(seed).choice(fits) if fits else default


def plan(workload: str, seed: int, ref: dict, smoke: bool = False) -> Plan:
    """The commands a run of ``workload`` executes for ``seed``."""
    if workload == "sweep-coprime":
        moduli = SMOKE[workload] if smoke else _draw(SWEEP_COPRIME, seed, ref)
        commands = tuple(
            Command(("verify", "--n", str(n), "--jobs", "1"), "verify", (n,)) for n in moduli
        )
        return Plan(workload, moduli, commands)
    if workload == "sweep-orbits":
        moduli = SMOKE[workload] if smoke else _draw(SWEEP_ORBITS, seed, ref)
        commands = tuple(
            Command(("verify", "--orbits", "--n", str(n)), "verify_orbits", (n,)) for n in moduli
        )
        return Plan(workload, moduli, commands, orbits=True)
    if workload == "contrast":
        moduli = SMOKE[workload] if smoke else _draw(CONTRAST, seed, ref)
        commands = tuple(
            Command(("verify", "--all-moduli", "--n", str(n)), "verify", (n,)) for n in moduli
        ) + tuple(Command(("search", "--n", str(n)), "search", (n,)) for n in moduli)
        return Plan(workload, moduli, commands, searches=moduli)
    if workload == "range-resume":
        lo, hi = SMOKE[workload] if smoke else _draw(RANGE_RESUME, seed, ref)
        argv = (
            "verify", "--n-range", f"{lo}:{hi}", "--all-moduli", "--jobs", "2",
            "--checkpoint-path", CHECKPOINT,
        )
        moduli = tuple(range(lo, hi + 1))
        return Plan(workload, moduli, (Command(argv, "verify", moduli),), resume=True)
    raise ValueError(f"unknown workload {workload!r}")
