"""End-to-end key distillation: planning, seed sizing, pass scheduling.

Given an N-bit reconciled key, an l-bit target, and a Mersenne exponent
gamma, the plan derives n = ceil(N/gamma) input blocks, m = floor(l/gamma)
full output blocks, and a tail of l' = l - m*gamma bits.  The output key
is the concatenation y_1 || ... || y_m || z, where the y_i are shifted
MMH passes and z is the modular-arithmetic tail hash of pass m+1.

Blocks and seed words are rows of ``bigint.Words``, which keeps each
packed stream once and reads rows by position; a 0/1 array input is
packed once, and A, b and c are rows of one seed stream.
``bigint.pass_spectra`` streams the rows through every pass at once,
so memory does not grow with n, and each pass then costs one inverse
transform.

``schedule`` is the one place where the fan-out is decided: before any
key bit moves, it cuts the key blocks into one contiguous range per
share and picks each range's engine.  ``_pass_sums`` runs it, fanning
out three times through ``_fan_out``, the one place that starts
processes: over the seed words that two ranges need, which are
transformed once; over the ranges, each streamed into its own pass
spectra; and over the passes, each summed over the ranges, reduced to
its canonical residue by ``bigint.to_ints`` and written as a
little-endian byte row, from which the key's y_1 .. y_m are unpacked at
once.  All results go to one buffer, a shared mapping when children
write to it: with one share nothing is forked and nothing is mapped.
Every row and pass runs through the same kernels whichever process runs
it, so the worker count can never change output bits.
"""

from __future__ import annotations

import logging
import mmap
import os
import signal
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from . import bigint, bitio, engines, mmh_mh
from . import goldilocks as gl
from .dm3h import split_and_pad
from .errors import (InvalidRatio, InvalidWorkers, LengthMismatch, SeedTooShort,
                     WorkerFailed)
from .mersenne import MersenneParams, MersenneResidue
from .mmh_mh import MhSeed

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PaParams:
    """Derived plan for one distillation run; l = m*gamma + l_prime."""

    gamma: int
    N: int
    l: int
    n: int
    m: int
    l_prime: int
    L: int  # the transform length of every range and pass
    b: int  # its digit width

    @property
    def mersenne(self) -> MersenneParams:
        return MersenneParams(self.gamma)

    @property
    def ratio(self) -> float:
        return self.l / self.N

    @property
    def pass_count(self) -> int:
        return self.m + (1 if self.l_prime > 0 else 0)

    @property
    def seed_words(self) -> int:
        """Length of the coefficient sequence A."""
        return self.n + self.m if self.l_prime > 0 else self.n + self.m - 1


@dataclass
class SeedMaterial:
    """DM3H coefficients plus the MH pair (present iff l' > 0)."""

    A: bigint.Words
    mh: MhSeed | None = None


def plan(N: int, l: int, gamma: int) -> PaParams:
    """Derive (n, m, l') for an N-bit input and l-bit output."""
    params = MersenneParams(gamma)  # raises InvalidGamma
    if l <= 0 or l > N:
        raise InvalidRatio(f"need 0 < l <= N, got l = {l}, N = {N}")
    n, m = -(-N // gamma), l // gamma
    L, b = bigint.transform_shape(gamma, n)  # raises InvalidGamma or TooManyBlocks
    return PaParams(gamma=params.gamma, N=N, l=l, n=n, m=m, l_prime=l - m * gamma, L=L, b=b)


def required_seed_bits(params: PaParams) -> int:
    """A-words plus, when the tail pass runs, the gamma-bit b and c."""
    bits = params.seed_words * params.gamma
    if params.l_prime > 0:
        bits += 2 * params.gamma
    return bits


def seed_from_bits(bits, params: PaParams) -> SeedMaterial:
    """Consume a seed stream: A words, then b, then c (gamma-bit LE words).

    ``bits`` is packed bytes or a 0/1 array.  An all-ones A-word is kept,
    as the ring products take 2^gamma - 1 as 0; b is forced odd by
    setting its least-significant bit (logged when coerced).
    """
    gamma = params.gamma
    need, have = required_seed_bits(params), bitio.bit_count(bits)
    if have < need:
        raise LengthMismatch(f"seed stream has {have} bits, need {need}")
    words = bigint.Words(bits, gamma, need // gamma)
    A = words[:params.seed_words]
    mh = None
    if params.l_prime > 0:
        b, c = words[params.seed_words:].ints()
        if b % 2 == 0:
            logger.info("forcing seed word b odd by setting its low bit")
            b |= 1
        mh = MhSeed(b=b, c=c)
    return SeedMaterial(A=A, mh=mh)


@dataclass
class DistillResult:
    key_bits: np.ndarray


@dataclass(frozen=True)
class Schedule:
    """What a run does, as ``schedule`` decides it."""

    params: PaParams
    shares: int
    bounds: tuple[int, ...]
    shared: tuple[int, ...]
    sizes: tuple[int, ...]
    held: tuple[int, ...]
    buffer: int


def _engine(size: int, passes: int) -> "engines.Mac | engines.BlockSums":
    return engines.BlockSums(size, passes) if size else engines.Mac()


def schedule(params: PaParams, workers: int | None = None) -> Schedule:
    """The run at ``workers`` processes: the given count, else QPA_WORKERS, else 1.

    The count must be a positive integer; the shares are capped by the
    blocks and the usable CPUs (all CPUs where the platform has no
    ``os.sched_getaffinity``, as macOS has not).  Share k streams blocks
    bounds[k] .. bounds[k+1] - 1 on the engine of B = sizes[k] (0: the
    MAC), which need seed words bounds[k] .. bounds[k+1] + passes - 2,
    so the ``shared`` words two ranges need are the passes - 1 from the start
    of each range but the first.  A range holds held[k] bytes: its key
    and seed windows of K and K + passes - 1 rows (``bigint.steps``) and
    its engine's buffers.  The ``buffer`` bytes hold the shared seed
    spectra, each share's pass spectra and each pass's residue.
    """
    if workers is None:
        raw = os.environ.get("QPA_WORKERS", "1")
        try:
            workers = int(raw)
        except ValueError:
            raise InvalidWorkers(f"QPA_WORKERS={raw!r} is not an integer") from None
    if workers < 1:
        raise InvalidWorkers(f"worker count must be at least 1, got {workers}")
    n, passes, length = params.n, params.pass_count, params.L
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    shares = min(workers, n, cpus)
    bounds = tuple(k * n // shares for k in range(shares + 1))
    shared = tuple(sorted({r for b in bounds[1:-1] for r in range(b, b + passes - 1)}))
    sizes, held = [], []
    for start, stop in zip(bounds, bounds[1:]):
        sizes.append(engines.block_size(stop - start, passes))
        engine = _engine(sizes[-1], passes)
        window = bigint.steps(engine.section, stop - start, length)[1]
        held.append(8 * (2 * window + passes - 1) * length + engine.buffer_bytes(window, length))
    buffer = 8 * (len(shared) + shares * passes) * length + passes * -(-params.gamma // 8)
    return Schedule(params, shares, bounds, shared, tuple(sizes), tuple(held), buffer)


def _fan_out(job, shares: int) -> None:
    """Run job(0, shares), ..., job(shares - 1, shares).

    Share 0 runs in the caller; shares 1.. run in ``os.fork``ed children,
    which see the caller's memory as it was at the fork and hand results
    back only by writing into shared mappings.  With one share nothing is
    forked.  Every child is reaped before this returns or raises; a child
    that raises, exits non-zero or is killed raises WorkerFailed.
    """
    if shares <= 1:
        job(0, 1)
        return
    children: list[int] = []
    try:
        for k in range(1, shares):
            try:
                pid = os.fork()
            except OSError as exc:
                raise WorkerFailed(f"could not start a worker process: {exc}") from exc
            if pid == 0:
                _run_child(job, k, shares)
            children.append(pid)
        job(0, shares)
        for pid in list(children):
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.remove(pid)
            if status != 0:
                raise WorkerFailed(f"worker process {pid} exited with status {status}")
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_child(job, k: int, shares: int) -> None:
    """Run share k in a forked child and exit: status 0 once it returns, else 1."""
    status = 1
    try:
        job(k, shares)
        status = 0
    except BaseException:  # the parent sees the status; the traceback goes to stderr
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def distill_blocks(blocks: bigint.Words, seed: SeedMaterial, params: PaParams,
                   workers: int | None = None) -> DistillResult:
    """Run the m (+1) passes on already-split blocks.

    The work is spread over the processes ``schedule`` gives ``workers``.
    """
    n = len(blocks)
    if n != params.n:
        raise LengthMismatch(f"{n} blocks, plan expects {params.n}")
    if len(seed.A) < params.seed_words:
        raise SeedTooShort(f"{params.pass_count} passes over {n} blocks need "
                           f"{params.seed_words} coefficients, seed has {len(seed.A)}")
    if params.l_prime > 0 and seed.mh is None:
        raise LengthMismatch("plan has a tail stage but no MH seed was supplied")
    sums = _pass_sums(blocks, seed.A, schedule(params, workers))
    key = np.unpackbits(sums[:params.m], axis=1, count=params.gamma,
                        bitorder="little").reshape(-1)
    if params.l_prime > 0:
        y = MersenneResidue(int.from_bytes(sums[-1].tobytes(), "little"), params.mersenne)
        key = np.concatenate([key, mmh_mh.mh_hash(y, seed.mh, params.l_prime)])
    if len(key) != params.l:
        raise LengthMismatch(f"key has {len(key)} bits, plan expects {params.l}")
    return DistillResult(key_bits=key)


def _pass_sums(blocks: bigint.Words, A: bigint.Words, run: Schedule) -> np.ndarray:
    """The pass sums' residues, as little-endian rows of ceil(gamma / 8) bytes.

    ``run``'s shares compute them, and the rows are copied out of its
    buffer, so its spectra are freed on return.
    """
    passes, length, gamma = run.params.pass_count, run.params.L, run.params.gamma
    shares, bounds, shared = run.shares, run.bounds, run.shared
    slot = np.full(len(A), -1)
    slot[list(shared)] = range(len(shared))
    # a shared mapping when children write to it
    rows, width = len(shared) + shares * passes, -(-gamma // 8)
    buf = mmap.mmap(-1, run.buffer) if shares > 1 else bytearray(run.buffer)
    spectra = np.frombuffer(buf, dtype=np.uint64, count=rows * length).reshape(rows, length)
    known, acc = spectra[:len(shared)], spectra[len(shared):].reshape(shares, passes, length)
    sums = np.frombuffer(buf, dtype=np.uint8, offset=8 * rows * length).reshape(passes, width)

    def transform(k: int, s: int) -> None:
        part = slice(k * len(shared) // s, (k + 1) * len(shared) // s)
        A.fill(shared[part], known[part])

    def seed_fill(rows: range, out: np.ndarray) -> None:
        # the words of one range that no other range needs form one run
        slots = slot[rows.start:rows.stop]
        own = np.flatnonzero(slots < 0)
        if len(own):
            A.fill(rows[own[0]:own[-1] + 1], out[own[0]:own[-1] + 1])
        for i in np.flatnonzero(slots >= 0):
            out[i] = known[slots[i]]

    def stream(k: int, s: int) -> None:
        bigint.pass_spectra(blocks, seed_fill, _engine(run.sizes[k], passes), acc[k],
                            bounds[k], bounds[k + 1])

    def finish(k: int, s: int) -> None:
        mine = range(k * passes // s, (k + 1) * passes // s)
        for q in mine:
            for part in acc[1:, q]:
                gl.v_add(acc[0, q], part, acc[0, q])
        for q, y in zip(mine, bigint.to_ints(acc[0, mine.start:mine.stop], gamma)):
            sums[q] = np.frombuffer(y.to_bytes(width, "little"), dtype=np.uint8)

    _fan_out(transform, min(shares, len(shared)))
    _fan_out(stream, shares)
    _fan_out(finish, min(shares, passes))
    return sums.copy()


def distill(X, seed: SeedMaterial, params: PaParams,
            workers: int | None = None,
            all_ones_policy: str = "error") -> np.ndarray:
    """K = y_1 || ... || y_m || z as a bit array of exactly l bits.

    ``X`` is packed bytes or a 0/1 array holding at least N bits; bits
    past N are ignored.
    """
    blocks = split_and_pad(X, params.mersenne, all_ones_policy=all_ones_policy,
                           nbits=params.N)
    return distill_blocks(blocks, seed, params, workers=workers).key_bits
