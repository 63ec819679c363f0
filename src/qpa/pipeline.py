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

``schedule`` decides the fan-out before any key bit moves: the shares,
the plan's one engine and the bytes each part holds.  ``_pass_sums``
forks once through ``_fan_out``, the one place that starts processes,
and the shares step through ``bigint.pass_spectra`` in lockstep between
pipe barriers, taking turns at the fills and each summing its own
columns; each then writes its passes' residues (``bigint.to_ints``) as
little-endian byte rows, from which y_1 .. y_m are unpacked at once.
The spectra, residues and shared windows live once in one buffer, mapped
only when children write to it.  Every row and pass runs through the same
kernels in any process, so the worker count never changes output bits.
"""

from __future__ import annotations

import contextlib
import logging
import mmap
import os
import signal
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from . import bigint, bitio, engines, mmh_mh
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
    L: int  # the transform length of every row and pass
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
    size: int  # the engine's B, 0 for the MAC
    window: int  # bytes of the key and seed windows
    engine: tuple[int, ...]  # bytes each share's engine holds for its columns
    buffer: int


def _engine(size: int, passes: int) -> "engines.Mac | engines.BlockSums":
    return engines.BlockSums(size, passes) if size else engines.Mac()


def schedule(params: PaParams, workers: int | None = None) -> Schedule:
    """The run at ``workers`` processes: the given count, else QPA_WORKERS, else 1.

    The count must be a positive integer; the shares are capped by the
    blocks, the columns and the usable CPUs (all CPUs where the platform
    has no ``os.sched_getaffinity``, as macOS has not).  The engine of
    B = ``size`` (0: the MAC) follows from n and the passes; the buffer
    holds the pass spectra, their residues and, when shared, the windows
    (``bigint.steps``).
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
    shares = min(workers, n, length, cpus)
    size = engines.block_size(n, passes)
    engine = _engine(size, passes)
    keys = bigint.steps(engine.section, n, length)[1]
    window = 8 * (2 * keys + passes - 1) * length
    cols = [bigint.columns(k, shares, length) for k in range(shares)]
    held = tuple(engine.buffer_bytes(keys, c.stop - c.start) for c in cols)
    buffer = (window if shares > 1 else 0) + 8 * passes * length + passes * -(-params.gamma // 8)
    return Schedule(params, shares, size, window, held, buffer)


def _fan_out(job, shares: int) -> None:
    """Run job(k, shares, barrier) for k = 0 .. shares - 1, in lockstep.

    Share 0 runs in the caller, the others in forked children, which hand
    results back only through shared mappings.  ``barrier()`` returns once
    every share has called it as often; a child holds only its own two
    pipe ends, so it exits at a barrier once its parent is gone.  Every
    child is reaped before this returns or raises; one that raises, exits
    or is killed raises WorkerFailed.
    """
    children, fds = {}, []  # the parent's (up, down) ends by unreaped pid; every end it holds

    def reap(pid: int, early: bool) -> None:  # early: it left before a barrier
        del children[pid]
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status or early:
            raise WorkerFailed(f"worker process {pid} exited with status {status}")

    def barrier() -> None:
        for pid, (up, _) in children.items():
            if not os.read(up, 1):
                reap(pid, True)
        for _, down in children.values():
            # a child gone since it called shows at the next barrier or reap
            with contextlib.suppress(BrokenPipeError):
                os.write(down, b"\0")

    try:
        for k in range(1, shares):
            (up, to_parent), (from_parent, down) = os.pipe(), os.pipe()
            fds += [up, down, to_parent, from_parent]
            try:
                pid = os.fork()
            except OSError as exc:
                raise WorkerFailed(f"could not start a worker process: {exc}") from exc
            if pid == 0:
                for fd in fds[:-2]:
                    os.close(fd)
                _run_child(job, k, shares, to_parent, from_parent)
            for fd in (fds.pop(), fds.pop()):
                os.close(fd)
            children[pid] = up, down
        job(0, shares, barrier)
        for pid in list(children):
            reap(pid, False)
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _run_child(job, k: int, shares: int, up: int, down: int) -> None:
    """Run share k in a forked child and exit: status 0 once it returns, else 1."""
    def barrier() -> None:
        with contextlib.suppress(BrokenPipeError):
            os.write(up, b"\0")
        if not os.read(down, 1):
            os._exit(1)  # the parent is gone

    status = 1
    try:
        job(k, shares, barrier)
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

    ``run``'s shares compute them into its buffer, freed on return.
    """
    passes, length, gamma = run.params.pass_count, run.params.L, run.params.gamma
    # a mapping, windows first, when children share it; one share's windows
    # are pass_spectra's own, freed before the inverse transforms
    shared = run.shares > 1
    buf = mmap.mmap(-1, run.buffer) if shared else bytearray(run.buffer)
    rows, width = (run.window // (8 * length) if shared else 0) + passes, -(-gamma // 8)
    spectra = np.frombuffer(buf, dtype=np.uint64, count=rows * length).reshape(rows, length)
    window, out = spectra[:-passes] if shared else None, spectra[-passes:]
    sums = np.frombuffer(buf, dtype=np.uint8, offset=8 * rows * length).reshape(passes, width)

    def share(k: int, s: int, barrier) -> None:
        bigint.pass_spectra(blocks, A.fill, _engine(run.size, passes), out, window, k, s, barrier)
        mine = range(k * passes // s, (k + 1) * passes // s)
        for q, y in zip(mine, bigint.to_ints(out[mine.start:mine.stop], gamma)):
            sums[q] = np.frombuffer(y.to_bytes(width, "little"), dtype=np.uint8)

    _fan_out(share, run.shares)
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
