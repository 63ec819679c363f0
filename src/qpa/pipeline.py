"""End-to-end key distillation: planning, seed sizing, pass scheduling.

Given an N-bit reconciled key, an l-bit target, and a Mersenne exponent
gamma, the plan derives n = ceil(N/gamma) input blocks, m = floor(l/gamma)
full output blocks, and a tail of l' = l - m*gamma bits.  The output key
is the concatenation y_1 || ... || y_m || z, where the y_i are shifted
MMH passes and z is the modular-arithmetic tail hash of pass m+1.

Blocks and seed words are ``bigint.Words``, read straight from packed
bytes; a 0/1 array input is packed once.  Their forward spectra are
computed on first use.

With more than one worker, ``distill_blocks`` fans out twice through
``_fan_out``, the one place that starts processes: first over row ranges
of the blocks and seed words together, whose spectra land in the
parent's shared mappings, then over the passes, dealt out round-robin.
Every row and pass runs through the same kernels whichever process runs
it, so the worker count can never change output bits.
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from . import bigint, bitio, dm3h, mmh_mh
from .dm3h import split_and_pad
from .errors import (InvalidGamma, InvalidRatio, InvalidWorkers, LengthMismatch,
                     SeedTooShort, TooManyBlocks, WorkerFailed)
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
    if gamma > bigint.MAX_GAMMA:
        raise InvalidGamma(f"gamma {gamma} exceeds the {bigint.MAX_GAMMA}-bit "
                           f"operands of the ring product")
    if l <= 0 or l > N:
        raise InvalidRatio(f"need 0 < l <= N, got l = {l}, N = {N}")
    n = -(-N // gamma)
    n_max = bigint.max_rows(gamma)
    if n > n_max:
        raise TooManyBlocks(f"{n} blocks exceed the {n_max} a pass sums "
                            f"exactly at gamma {gamma}")
    m = l // gamma
    l_prime = l - m * gamma
    return PaParams(gamma=params.gamma, N=N, l=l, n=n, m=m, l_prime=l_prime)


def required_seed_bits(params: PaParams) -> int:
    """A-words plus, when the tail pass runs, the gamma-bit b and c."""
    bits = params.seed_words * params.gamma
    if params.l_prime > 0:
        bits += 2 * params.gamma
    return bits


def seed_from_bits(bits, params: PaParams) -> SeedMaterial:
    """Consume a seed stream: A words, then b, then c (gamma-bit LE words).

    ``bits`` is packed bytes or a 0/1 array.  The all-ones A-word reduces
    to 0; b is forced odd by setting its least-significant bit (logged
    when coerced).
    """
    gamma = params.gamma
    need, have = required_seed_bits(params), bitio.bit_count(bits)
    if have < need:
        raise LengthMismatch(f"seed stream has {have} bits, need {need}")
    words = bitio.read_words(bits, gamma, need // gamma)
    p = params.mersenne.p
    A = bigint.Words.from_ints(
        [0 if w == p else w for w in words[:params.seed_words]], gamma)
    mh = None
    if params.l_prime > 0:
        b, c = words[params.seed_words:]
        if b % 2 == 0:
            logger.info("forcing seed word b odd by setting its low bit")
            b |= 1
        mh = MhSeed(b=b, c=c)
    return SeedMaterial(A=A, mh=mh)


@dataclass
class DistillResult:
    key_bits: np.ndarray
    y_blocks: list[MersenneResidue]   # passes 1..m


def _resolve_workers(workers: int | None) -> int:
    """The given count, else QPA_WORKERS, else 1; must be a positive integer."""
    if workers is None:
        raw = os.environ.get("QPA_WORKERS", "1")
        try:
            workers = int(raw)
        except ValueError:
            raise InvalidWorkers(f"QPA_WORKERS={raw!r} is not an integer") from None
    if workers < 1:
        raise InvalidWorkers(f"worker count must be at least 1, got {workers}")
    return workers


def _fan_out(job, tasks: int, workers: int) -> list:
    """[job(0, s), ..., job(s - 1, s)] for s = min(workers, tasks, CPUs) shares.

    Share 0 runs in the caller; shares 1.. run in ``os.fork``ed children,
    which see the caller's memory as it was at the fork and send their
    results back pickled over a pipe.  With one share nothing is forked.
    Every child is reaped before this returns or raises; a child that
    raises, exits non-zero or sends no result raises WorkerFailed.
    """
    shares = min(workers, tasks, len(os.sched_getaffinity(0)))
    if shares <= 1:
        return [job(0, 1)]
    children: dict[int, int] = {}   # pid -> read end of its pipe
    try:
        for k in range(1, shares):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(read_fd)
                os.close(write_fd)
                raise WorkerFailed(f"could not start a worker process: {exc}") from exc
            if pid == 0:
                _run_child(job, k, shares, write_fd, [read_fd, *children.values()])
            os.close(write_fd)
            children[pid] = read_fd
        results = [job(0, shares)]
        for pid, read_fd in list(children.items()):
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            os.close(read_fd)
            if status != 0:
                raise WorkerFailed(f"worker process {pid} exited with status {status}")
            try:
                results.append(pickle.loads(data))
            except (EOFError, pickle.UnpicklingError):
                raise WorkerFailed(f"worker process {pid} sent back no result") from None
        return results
    finally:
        for pid, read_fd in children.items():
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_child(job, k: int, shares: int, write_fd: int, inherited: list[int]) -> None:
    """Run share k in a forked child, send its result and exit.

    ``inherited`` are read ends this child must not hold open, so a
    write fails instead of blocking once its reader is gone.
    """
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        data = pickle.dumps(job(k, shares), protocol=pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    except BaseException:  # the parent sees the status; the traceback goes to stderr
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)


def distill_blocks(blocks: bigint.Words, seed: SeedMaterial, params: PaParams,
                   workers: int | None = None) -> DistillResult:
    """Run the m (+1) passes on already-split blocks.

    The forward spectra and the passes are spread over up to ``workers``
    processes (default: QPA_WORKERS, else 1).
    """
    n = len(blocks)
    if n != params.n:
        raise LengthMismatch(f"{n} blocks, plan expects {params.n}")
    if len(seed.A) < params.seed_words:
        raise SeedTooShort(f"{params.pass_count} passes over {n} blocks need "
                           f"{params.seed_words} coefficients, seed has {len(seed.A)}")
    if params.l_prime > 0 and seed.mh is None:
        raise LengthMismatch("plan has a tail stage but no MH seed was supplied")
    nworkers = _resolve_workers(workers)
    rows = n + params.seed_words

    def fill(k: int, shares: int) -> None:
        lo, hi = k * rows // shares, (k + 1) * rows // shares
        blocks.fill(min(lo, n), min(hi, n))
        seed.A.fill(max(lo, n) - n, max(hi, n) - n)

    indices = range(1, params.pass_count + 1)

    def passes(k: int, shares: int) -> dict:
        return {i: dm3h.mmh_pass(blocks, seed.A, i) for i in indices[k::shares]}

    _fan_out(fill, rows, nworkers)
    by_index = {}
    for part in _fan_out(passes, len(indices), nworkers):
        by_index.update(part)
    outputs = [by_index[i] for i in indices]

    y_blocks = outputs[:params.m]
    pieces = [bitio.bits_from_int(y.value, params.gamma) for y in y_blocks]
    if params.l_prime > 0:
        pieces.append(mmh_mh.mh_hash(outputs[-1], seed.mh, params.l_prime))
    key = np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.uint8)
    if len(key) != params.l:
        raise LengthMismatch(f"key has {len(key)} bits, plan expects {params.l}")
    return DistillResult(key_bits=key, y_blocks=y_blocks)


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
