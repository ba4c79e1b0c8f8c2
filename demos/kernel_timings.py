"""CPU and wall milliseconds per call of the kernels a step is built from.

    PYTHONPATH=src python demos/kernel_timings.py [--repeats R] [n ...]

Grids default to n = 32 and 64 (box side 16), with a spin-up Gaussian packet
under its own periodic potential. Each figure is the median over R calls
(default 7) after warm-up calls, and each row names the FFT worker counts
its transforms ran with ("-": none). The two "1 comp." FFT rows call
scipy.fft directly at 1 worker and at the LLN_THREADS budget, so the grain
of `fields._workers` shows where a second worker starts to pay. numpy's
OpenBLAS runs on one thread, as in `lln`: this script imports numpy before
`lln`, so the OPENBLAS_NUM_THREADS=1 that `import lln` sets comes too late,
and `cli._cap_blas_threads` caps the library instead. The
kick phase is the one `run` builds (`evolve._kick_phase`). `compute_charges`
is timed on the spin-up packet, whose zero component it skips, and on a
two-component (0.6, 0.8i) packet. The sweep row times one call of the
imaginary-time sweep map (`evolve._sweep`, isolated gravity) on the packet's
one real plane. A split step (self/periodic `run`) and an Anderson-mixed
iteration (isolated `ground_state`: a sweep plus its mixing step) are the
difference of two runs, so set-up is not counted. The two `represent` rows
time the shift path (a translation) and the separable path (a quarter turn
after a dilation); the dense path of a generic rotation is O(n^6) and is
left out.
"""

import argparse
import contextlib
import time

import numpy as np
import scipy.fft as sfft

from lln import fields
from lln.charges import compute_charges
from lln.cli import _cap_blas_threads
from lln.evolve import (
    RelaxConfig, RunConfig, _kick_phase, _sweep, apply_hamiltonian, ground_state, run,
    self_potential,
)
from lln.fields import GridSpec, fftn, gaussian_packet, ifftn
from lln.gravity import mass_density, poisson_isolated, poisson_periodic
from lln.sngroup import SnGroupElement, compose, represent


@contextlib.contextmanager
def fft_workers():
    """The set of `workers` values of the scipy.fft transforms in the block."""
    seen = set()
    originals = {name: getattr(sfft, name) for name in ("fftn", "ifftn", "rfftn", "irfftn")}

    def spy(fn):
        def call(*args, **kwargs):
            seen.add(kwargs.get("workers"))
            return fn(*args, **kwargs)
        return call

    for name, fn in originals.items():
        setattr(sfft, name, spy(fn))
    try:
        yield seen
    finally:
        for name, fn in originals.items():
            setattr(sfft, name, fn)


def timed(fn, repeats):
    """(FFT workers, median CPU ms, median wall ms) of fn() over repeats
    calls, after two warm-up calls; the workers are read off the second, so
    one-off set-up (the isolated kernel) does not count."""
    fn()
    with fft_workers() as workers:
        fn()
    cpu, wall = [], []
    for _ in range(repeats):
        t0, w0 = time.process_time(), time.perf_counter()
        fn()
        cpu.append(time.process_time() - t0)
        wall.append(time.perf_counter() - w0)
    return tuple(sorted(workers)), 1e3 * float(np.median(cpu)), 1e3 * float(np.median(wall))


def kernels(n):
    """(name, callable, callable to subtract or None, calls) on an n^3 grid."""
    grid = GridSpec(n, 16.0)
    f = gaussian_packet(grid, sigma=1.5)
    rho = mass_density(f.data, grid, f.m)
    pot = self_potential(f.data, grid, f.m, 1.0, "periodic")
    f2 = gaussian_packet(grid, sigma=1.5, spin=(0.6, 0.8j))
    pot2 = self_potential(f2.data, grid, f2.m, 1.0, "periodic")
    k = 4  # steps or iterations beyond the shorter run's one
    shift = SnGroupElement.translation(c=(0.3, -0.2, 0.1))
    turn = compose(SnGroupElement.rotation([0, 0, 1], np.pi / 2), SnGroupElement.dilation(1.05))

    def steps(s):
        return lambda: run(f, RunConfig(dt=1e-3, steps=s, source="self", poisson="periodic"))

    relax = RelaxConfig(dtau=0.02, poisson="isolated")
    plane = f.data.real[:1].copy()
    decay = np.exp(-f.hbar * grid.k2[..., : n // 2 + 1] * relax.dtau / (2.0 * f.m))

    def iterations(s):
        return lambda: ground_state(f, RelaxConfig(dtau=0.02, tol=0.0, max_iter=s,
                                                   poisson="isolated"))

    one = f.data[:1]

    def fft_pair(w):
        return lambda: sfft.ifftn(sfft.fftn(one, axes=(-3, -2, -1), workers=w),
                                  axes=(-3, -2, -1), workers=w)

    return [
        ("fft pair, 2 components", lambda: ifftn(fftn(f.data)), None, 1),
        ("fft pair, 1 component", lambda: ifftn(fftn(one)), None, 1),
        ("fft pair, 1 comp., 1 worker", fft_pair(1), None, 1),
        ("fft pair, 1 comp., budget", fft_pair(fields._budget()), None, 1),
        ("poisson_periodic", lambda: poisson_periodic(rho, grid), None, 1),
        ("poisson_isolated", lambda: poisson_isolated(rho, grid), None, 1),
        ("kick phase", lambda: _kick_phase(pot, f.m, f.hbar, 1e-3), None, 1),
        ("apply_hamiltonian", lambda: apply_hamiltonian(f.data, pot, grid, 1.0, 1.0), None, 1),
        ("compute_charges, spin-up", lambda: compute_charges(f, pot), None, 1),
        ("compute_charges, 2 comp.", lambda: compute_charges(f2, pot2), None, 1),
        ("split step (run)", steps(1 + k), steps(1), k),
        ("sweep (_sweep)", lambda: _sweep(plane, decay, relax, grid, f.m, f.hbar), None, 1),
        ("iteration (ground_state)", iterations(1 + k), iterations(1), k),
        ("represent, translation", lambda: represent(shift, f), None, 1),
        ("represent, turn+dilation", lambda: represent(turn, f), None, 1),
    ]


def main(ns=(32, 64), repeats=7):
    """Prints and returns {kernel: [(workers, CPU ms, wall ms) per n]}."""
    _cap_blas_threads()
    table = {}
    for n in ns:
        for name, fn, base, calls in kernels(n):
            workers, cpu, wall = timed(fn, repeats)
            if base:
                _, cpu0, wall0 = timed(base, repeats)
                cpu, wall = cpu - cpu0, wall - wall0
            table.setdefault(name, []).append((workers, cpu / calls, wall / calls))
    print(f"{'kernel (ms per call)':<28}"
          + "".join(f"{f'n={n} workers':>14}{'CPU':>8}{'wall':>8}" for n in ns))
    for name, row in table.items():
        print(f"{name:<28}" + "".join(
            f"{','.join(map(str, w)) or '-':>14}{cpu:>8.2f}{wall:>8.2f}" for w, cpu, wall in row))
    return table


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("n", type=int, nargs="*", default=[32, 64], help="grid sizes")
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    main(args.n, args.repeats)
