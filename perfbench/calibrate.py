"""The machine's current speed, from a fixed pure-Python kernel.

On a shared machine the same code runs up to twice as slowly for minutes at a
time, and process CPU time slows with it. Timing a fixed kernel just before
each operation measures that speed, so the operation's time can be given at a
reference speed: ``ms * REF_KERNEL_MS / kernel_ms``. The speed changes from
one operation to the next, so the kernel run just before an operation tracks
it better than a median over earlier runs.

Import is a different kind of work (compiling and building code objects,
functions and classes), and it slows by a different share. Set-up time is
therefore scaled by a second kernel of that kind: compiling and executing a
fixed module source. The kernel does the kind
of work retold does (an edit-distance table, lowercasing, splitting and
counting words) in plain Python, imports nothing from retold, and never
changes with the program.

This module imports only ``time``, so that a fresh interpreter can time the
kernel without loading a module that retold would then find already imported.
"""

import time

# each kernel's time in quiet periods on the 2-vCPU VM the bounds were set
# on, in a warm process and a fresh one; a calibrated time reads in ms at
# that speed
REF_KERNEL_MS = 1.2
REF_IMPORT_KERNEL_MS = 16.0


def _words(count: int, seed: int) -> list[str]:
    """``count`` words from a 40-word vocabulary, by a fixed LCG."""
    out = []
    for _ in range(count):
        seed = (seed * 1103515245 + 12345) % 2 ** 31
        out.append(f"w{seed % 40}")
    return out


_A = _words(60, 1)
_B = _words(60, 2)
_TEXT = " ".join(w + ",. "[len(w) % 3] for w in _words(400, 3))
_MODULE = "".join(f"""
def f{i}(a, b=1):
    x = [a, b, {i}]
    return {{'k{i}': x, 's': str(a) + 'z{i}'}}

class C{i}:
    y = {i}

    def m(self):
        return self.y
""" for i in range(60))


def two_row_levenshtein(a, b) -> int:
    """Edit distance by the two-row dynamic programme."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def kernel_ms() -> float:
    """One run of the kernel, in ms."""
    start = time.perf_counter()
    two_row_levenshtein(_A, _B)
    counts = {}
    for word in _TEXT.lower().replace(",", " ").split():
        counts[word] = counts.get(word, 0) + 1
    sorted(counts.items())
    return (time.perf_counter() - start) * 1e3


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def kernel_factor(runs: int = 1) -> float:
    """The machine's slowness now: the median of ``runs`` kernel times over
    the reference, so 2.0 means half speed."""
    return median([kernel_ms() for _ in range(runs)]) / REF_KERNEL_MS


def import_kernel_factor() -> float:
    """The machine's slowness now for import-like work, in a fresh process:
    compiling and executing a fixed module three times, over the reference."""
    start = time.perf_counter()
    for _ in range(3):
        exec(compile(_MODULE, "<calibrate>", "exec"), {})
    return (time.perf_counter() - start) * 1e3 / REF_IMPORT_KERNEL_MS
