"""A fixed pure-Python load that measures how fast the machine is right now.

    python3 perfbench/calibrate.py

runs `load` once.  The machine the benchmark runs on may change speed
by a third or more within minutes, as other tenants come and go, and
such a change moves every timing of a run alike.  So each run times
this load next to its own work, and reports its times scaled to a
machine on which one fresh `calibrate.py` process takes PROCESS_S
seconds and one in-process `load` call takes LOAD_S seconds: a figure
is multiplied by PROCESS_S (or LOAD_S) over the run's median time of
the same load.  The load uses none of tmbt, so no change to tmbt can
move it.

The load is a breadth-first search over a fixed graph of integer pairs:
tuples, a set of visited states and list appends, the same kinds of
work as tmbt's explorer, parser and tester do in the interpreter.
"""

import sys

# Rounded medians of seven of each, taken when the benchmark was written
# (Python 3.11.7, two virtual CPUs); they set the scale of the reported
# times, not their steadiness.
PROCESS_S = 0.12
LOAD_S = 0.07

SIDE = 240


def load() -> int:
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        following = []
        for a, b in frontier:
            for state in ((a + 1, b), (a, b + 1), ((a * 7 + b) % SIDE, a)):
                if state[0] < SIDE and state[1] < SIDE and state not in seen:
                    seen.add(state)
                    following.append(state)
        frontier = following
    return len(seen)


if __name__ == "__main__":
    sys.exit(0 if load() == SIDE * SIDE else 1)
