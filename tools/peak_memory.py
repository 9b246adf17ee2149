"""Print the tracemalloc peak of ``pairspec run`` per phase, in d x d matrices.

Each grid size n runs the README config (its ``### Config format`` block)
with the eps/2 check on and writes its artifacts into a temporary
directory, as ``pairspec run`` does, and prints the peak of each phase in
units of one d x d complex128 matrix (d = 2n + 1 + M):

    factor   building W and factoring it (``numkit.eigenbasis``)
    solve    Theta_in and the shared work before the two shifts fork
    lanes    the eps and eps/2 propagations, on two threads
    tail     the JSI, Schmidt spectrum and purity of the main Theta_out
    write    the artifacts (``cli._write_run_artifacts``), with the run's
             outputs still held

and the peak of the whole command.  The lanes' peak depends on how the
two threads interleave (at n = 256 one run read 4.49 and another 4.66), so
each n is measured :data:`REPEATS` times and each column is the largest
reading.  Run it from the repository root::

    python tools/peak_memory.py 64 256
"""

import pathlib
import sys
import tempfile
import threading
import tracemalloc

_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))

from pairspec import cli, numkit, observables, scattering
from pairspec.config import config_from_raw, parse_config_text

_README = _ROOT / "README.md"
PHASES = ("factor", "solve", "lanes", "tail", "write")
# Runs per grid size; main prints each phase's largest peak over them.
REPEATS = 5


def readme_config(n):
    block = _README.read_text(encoding="utf-8").split("### Config format", 1)[1].split("```\n", 2)[1]
    return config_from_raw(parse_config_text(block.replace("grid.n = 64", f"grid.n = {n}")))


class _Phases:
    """Peaks between phase marks: ``mark(phase)`` closes the phase before
    it.  A mark for a phase already reached is ignored, so the second
    propagate of a run does not reopen the lanes."""

    def __init__(self):
        self.peaks = {}
        self.phase = PHASES[0]
        self.lock = threading.Lock()

    def mark(self, phase):
        with self.lock:
            if PHASES.index(phase) <= PHASES.index(self.phase):
                return
            self.peaks[self.phase] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            self.phase = phase

    def close(self):
        self.peaks[self.phase] = tracemalloc.get_traced_memory()[1]


def _marking(phases, phase, real, after=False):
    def wrapper(*args, **kwargs):
        if not after:
            phases.mark(phase)
        result = real(*args, **kwargs)
        if after:
            phases.mark(phase)
        return result
    return wrapper


def measure(n):
    """(d, {phase: peak in d x d matrices})."""
    cfg = readme_config(n)
    d = 2 * n + 1 + len(cfg.material_freqs)
    phases = _Phases()
    patched = [
        (numkit, "eigenbasis", _marking(phases, "solve", numkit.eigenbasis, after=True)),
        (scattering, "propagate", _marking(phases, "lanes", scattering.propagate)),
        (scattering, "extract_output_jsa", _marking(phases, "tail", scattering.extract_output_jsa)),
        (observables, "purity", _marking(phases, "tail", observables.purity)),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patched]
    for module, name, wrapper in patched:
        setattr(module, name, wrapper)
    tracemalloc.start()
    try:
        with tempfile.TemporaryDirectory() as out_dir:
            out = cli.execute_run(cfg)
            phases.mark("write")
            cli._write_run_artifacts(out_dir, cfg, out)
            phases.close()
    finally:
        tracemalloc.stop()
        for module, name, real in saved:
            setattr(module, name, real)
    return d, {p: v / (16.0 * d * d) for p, v in phases.peaks.items()}


def main(sizes):
    print("n     d     " + "  ".join(f"{p:>6}" for p in PHASES) + f"    peak  (max of {REPEATS} runs)")
    for n in sizes:
        runs = [measure(n) for _ in range(REPEATS)]
        peaks = {p: max(r.get(p, 0.0) for _, r in runs) for p in PHASES}
        print(f"{n:<5} {runs[0][0]:<5} " + "  ".join(f"{peaks[p]:6.2f}" for p in PHASES)
              + f"  {max(peaks.values()):6.2f}")


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or [256])
