"""Independent reference answers for the benchmark's check and test runs.

Everything here is written from the problem statements (boiler physics,
the jug puzzle, subtraction GCD, the treatment-console race, the boiler
control API) and imports nothing from tmbt, so a verdict is never
checked against the program's own output.

A check answer is what `tmbt check --format json` must report: the exit
code, the stats line and, per violated invariant, the length of the
shortest counterexample.  The counting contract it follows is the one
the tmbt explorer documents: states_found counts the initial states plus
every successor generated from a dequeued state, duplicates included;
diameter is 1 + the deepest BFS level.
"""

from __future__ import annotations

from collections import deque


def check_answer(initials, successors, invariants, max_distinct=None):
    """Brute-force BFS answer for one check invocation.

    `successors(state)` returns (action, next) pairs, distinct per
    action; `invariants` maps a name to a predicate over states.  With
    `max_distinct` the search stops admitting new states at that many
    distinct states, as a bounded explorer does.
    """
    depth = {}
    for state in initials:
        depth.setdefault(state, 0)
    found = len(depth)
    truncated = False
    queue = deque(depth)
    while queue:
        state = queue.popleft()
        succs = successors(state)
        found += len(succs)
        for _, nxt in succs:
            if nxt in depth:
                continue
            if max_distinct is not None and len(depth) >= max_distinct:
                truncated = True
                continue
            depth[nxt] = depth[state] + 1
            queue.append(nxt)
    traces = {}
    for name, holds in invariants.items():
        bad = [depth[s] for s in depth if not holds(s)]
        if bad:
            traces[name] = min(bad) + 1
    return {
        "exit": 1 if traces else 0,
        "stats": {
            "states_found": found,
            "distinct_states": len(depth),
            "diameter": 1 + max(depth.values()) if depth else 0,
            "truncated": truncated,
        },
        "traces": traces,
    }


# ---------------------------------------------------------------------------
# Steam boiler closed loop: the pump adds 10 per interval while on, steam
# removes 0..10 while it is off, and the controller's decision on the new
# reading sets the pump for the next interval.  The tank holds 0..1000 and
# the safe band is 200..800.

def steamboiler(low: int, high: int) -> dict:
    def successors(state):
        level, pump = state
        if pump:
            nxt = level + 10
            return [("PumpFills", (nxt, nxt < high))] if nxt <= 1000 else []
        return [("SteamDrains", (nxt, nxt <= low))
                for nxt in range(level, level - 11, -1) if nxt >= 0]

    return check_answer(
        [(500, False)], successors,
        {"TypeOK": lambda s: 0 <= s[0] <= 1000,
         "LevelInBand": lambda s: 200 <= s[0] <= 800})


# ---------------------------------------------------------------------------
# Subtraction GCD from (m, n); the type invariant bounds x by m and y by n.

def euclid(m: int, n: int) -> dict:
    def successors(state):
        x, y = state
        if x > y:
            return [("SubtractY", (x - y, y))]
        if y > x:
            return [("SubtractX", (x, y - x))]
        return []

    return check_answer(
        [(m, n)], successors,
        {"TypeOK": lambda s: 1 <= s[0] <= m and 1 <= s[1] <= n})


# ---------------------------------------------------------------------------
# One-bit clock: either value may start, and every step flips the bit.

def onebit() -> dict:
    return check_answer([0, 1], lambda b: [("A1" if b == 0 else "A2", 1 - b)],
                        {})


# ---------------------------------------------------------------------------
# Jug puzzle: a 3-gallon and a 5-gallon jug, both empty at the start; the
# goal invariant big /= 4 is registered, so reaching 4 is a violation.

def diehard() -> dict:
    def successors(state):
        small, big = state
        to_big = min(small, 5 - big)
        to_small = min(big, 3 - small)
        return [("FillSmall", (3, big)), ("FillBig", (small, 5)),
                ("EmptySmall", (0, big)), ("EmptyBig", (small, 0)),
                ("SmallToBig", (small - to_big, big + to_big)),
                ("BigToSmall", (small + to_small, big - to_small))]

    return check_answer(
        [(0, 0)], successors,
        {"TypeOK": lambda s: 0 <= s[0] <= 3 and 0 <= s[1] <= 5,
         "big_ne_4": lambda s: s[1] != 4})


# ---------------------------------------------------------------------------
# Treatment console: (mode, target, timer, beamHigh, fired), with 0 idle,
# 1 photon, 2 electron.  Selecting starts an 8-tick settling countdown; an
# edit to electron mode inside the window leaves the beam at photon
# strength, and firing electron mode at photon strength is the overdose.

def therac25() -> dict:
    def successors(state):
        mode, target, timer, beam, fired = state
        out = []
        if not fired and mode == 0:
            out.append(("SelectPhoton", (1, 1, 8, beam, fired)))
            out.append(("SelectElectron", (2, 2, 8, beam, fired)))
        if not fired and mode == 1 and timer > 0:
            out.append(("CursorUp", (2, target, timer, beam, fired)))
        if timer > 0:
            settled = beam if timer > 1 else target == 1
            out.append(("Tick", (mode, target, timer - 1, settled, fired)))
        if not fired and timer == 0 and mode > 0:
            out.append(("Fire", (mode, target, timer, beam, True)))
        return out

    return check_answer(
        [(0, 0, 0, False, False)], successors,
        {"TypeOK": lambda s: s[0] in (0, 1, 2) and s[1] in (0, 1, 2)
         and 0 <= s[2] <= 8,
         "NoOverdose": lambda s: not (s[4] and s[0] == 2 and s[3])})


# ---------------------------------------------------------------------------
# Closed forms for the generated specs.

def toggle() -> dict:
    """n booleans that all flip together: the start pattern and its
    complement, whatever n and the start pattern are."""
    return {"exit": 0,
            "stats": {"states_found": 3, "distinct_states": 2, "diameter": 2,
                      "truncated": False},
            "traces": {}}


def counter_past_type_bound(type_high: int, max_distinct: int) -> dict:
    """x starts at 0 and increments without bound; TypeOK claims
    x \\in 0..type_high.  The bounded search admits x = 0..max_distinct-1,
    so TypeOK fails at x = type_high + 1."""
    if max_distinct <= type_high + 1:
        raise ValueError("the bound must admit the first out-of-type state")
    return {"exit": 1,
            "stats": {"states_found": max_distinct + 1,
                      "distinct_states": max_distinct,
                      "diameter": max_distinct, "truncated": True},
            "traces": {"TypeOK": type_high + 2}}


def guarded_counter(bound: int, inv_bound: int) -> dict:
    """x starts at 0 and increments while x < bound; the invariant
    x < inv_bound first fails at x = inv_bound."""
    if not 0 < inv_bound <= bound:
        raise ValueError("the invariant bound must lie in 1..bound")
    return {"exit": 1,
            "stats": {"states_found": bound + 1, "distinct_states": bound + 1,
                      "diameter": bound + 1, "truncated": False},
            "traces": {"Inv": inv_bound + 1}}


# ---------------------------------------------------------------------------
# Boiler control API, used to judge a reported shrunk counterexample.
# The reference controller switches the pump on at or below `low` and off
# at or above `high` after each level change; the band mutant does so at
# 190/810, the pump mutant ignores operator pump commands.

OPS = ("startSystem", "endSystem", "pumpDidOpen", "openPump", "pumpDidClose",
       "closePump", "waterLevelDidChange", "checkWaterLevel",
       "controlSignalDidChange")


class Boiler:
    def __init__(self, low=300, high=700, ignore_pump=False):
        self.low, self.high, self.ignore_pump = low, high, ignore_pump
        self.running, self.level, self.pump, self.signal = False, 500, False, -1

    def enabled(self, op: str, args: dict) -> bool:
        """The API's preconditions, read from this boiler's state."""
        if set(args) != ({"amount"} if op == "waterLevelDidChange" else
                         {"val"} if op == "controlSignalDidChange" else set()):
            return False
        if op == "startSystem":
            return not self.running
        if not self.running:
            return False
        if op in ("pumpDidOpen", "closePump"):
            return self.pump
        if op in ("openPump", "pumpDidClose"):
            return not self.pump
        if op == "waterLevelDidChange":
            return -100 <= args["amount"] <= 100
        if op == "controlSignalDidChange":
            return self.signal >= 0 and args["val"] == self.signal
        return op in ("endSystem", "checkWaterLevel")

    def apply(self, op: str, args: dict) -> dict:
        if op == "startSystem":
            self.running, self.level, self.pump, self.signal = True, 500, False, -1
            return {"level": 500, "pump": False}
        if op == "endSystem":
            self.running = False
            return {}
        if op in ("openPump", "closePump"):
            if not self.ignore_pump:
                self.pump = op == "openPump"
            return {"pump": self.pump}
        if op in ("pumpDidOpen", "pumpDidClose"):
            return {"pump": self.pump}
        if op == "waterLevelDidChange":
            self.level = max(0, min(1000, self.level + args["amount"]))
            if not self.pump and self.level <= self.low:
                self.pump, self.signal = True, 1
            elif self.pump and self.level >= self.high:
                self.pump, self.signal = False, 0
            return {"level": self.level, "pump": self.pump,
                    "signal": self.signal}
        if op == "checkWaterLevel":
            return {"level": self.level}
        return {"signal": self.signal}


def mutant_boiler(mutant: str) -> Boiler:
    if mutant == "band":
        return Boiler(low=190, high=810)
    return Boiler(ignore_pump=True)


def first_divergence(commands, mutant: str):
    """Index of the first command whose mutant reply disagrees with the
    reference model, or None; raises ValueError if a command is not
    enabled in the model.  Replies are compared as projections: every key
    the model expects must be present and equal."""
    model, sut = Boiler(), mutant_boiler(mutant)
    for index, (op, args) in enumerate(commands):
        if not model.enabled(op, args):
            raise ValueError(f"{op} at index {index} is not enabled")
        expected = model.apply(op, args)
        observed = sut.apply(op, args)
        if any(observed.get(k) != v for k, v in expected.items()):
            return index
    return None


def is_one_minimal_failure(commands, mutant: str) -> bool:
    """The sequence fails, and dropping any one command leaves a sequence
    that is either not enabled in the model or no longer fails."""
    try:
        if first_divergence(commands, mutant) is None:
            return False
    except ValueError:
        return False
    for drop in range(len(commands)):
        shorter = commands[:drop] + commands[drop + 1:]
        try:
            if first_divergence(shorter, mutant) is not None:
                return False
        except ValueError:
            continue
    return True
