"""The array walk kernel that the compiled one (champagne/_walk.c) replaced,
kept as its reference.

It advances a pool of up to `chunk` walks as numpy arrays: a walk that
exits frees its row for the next unstarted walk, and the pool compacts once
the supply is exhausted.  The compiled kernel must return equal arrays for
every range of walks; only a zero coordinate's sign may differ, from the
+-0 jump this kernel gives rows that do not jump.
"""

import numpy as np

from champagne.errors import WalkBudgetError
from champagne.streams import stream_keys, uniforms_at
from champagne.walker import (
    _CHUNK,
    _CODE_EXTERIOR,
    _CODE_SHELL,
    _ENC_TRIGGER,
    _STEP_FLOOR,
    _TWO_PI,
)

from grid_build import cells_of


def pool_walk_chunk(domain, z0: complex, eps: float, seed: int,
                    w0: int, w1: int, max_steps: int, r_out: float,
                    absorbing_shell, chunk: int = _CHUNK):
    """Run walks [w0, w1); returns (exit_code, steps, path_length, exit_pos).

    The walks share a pool of at most `chunk` rows: a row whose walk exits
    takes the next unstarted walk of the range, so the slow tail of the
    step counts is paid once per range rather than once per batch.

    `steps` counts uniform draws: one per jump, two per analytically
    resolved point-like encounter (survival Bernoulli plus exit angle).
    """
    idx = domain.index
    n = w1 - w0
    width = min(n, chunk)
    supply = stream_keys(seed, np.arange(w0, w1, dtype=np.uint64))
    started = width                     # walks of the range handed to a row so far
    keys = supply[:width].copy()
    x = np.full(width, z0.real)
    y = np.full(width, z0.imag)
    path = np.zeros(width)
    cnt = np.zeros(width, dtype=np.int64)   # per-walk stream counter
    walk_row = np.arange(width)             # walk of each row, relative to w0

    exit_code = np.full(n, -1, dtype=np.int64)
    exit_steps = np.zeros(n, dtype=np.int64)
    exit_path = np.zeros(n)
    exit_x = np.zeros(n)
    exit_y = np.zeros(n)

    cx = idx.cx
    cy = idx.cy
    rad = idx.radii
    h = idx.h
    eps_eff = max(eps, _STEP_FLOOR)

    while x.size:
        mod = np.sqrt(x * x + y * y)
        d_ext = r_out - mod

        # nearest candidate surface; rows without candidates keep inf
        cells = cells_of(idx, x, y)
        rep, items, offsets, lens = idx.gather_candidates(cells)
        cand_min = np.full(x.size, np.inf)
        nz = lens > 0
        if items.size:
            dist = np.sqrt((x[rep] - cx[items]) ** 2 + (y[rep] - cy[items]) ** 2) - rad[items]
            cand_min[nz] = np.minimum.reduceat(dist, offsets[:-1][nz])
        d_bub = np.where(cand_min <= h, cand_min, np.maximum(h, idx.clearance[cells]))
        step = np.minimum(d_ext, d_bub)

        # classify: a terminating walk exits at the nearest component,
        # the exterior winning ties (d_ext <= 0 or cand_min <= 0 make
        # step <= 0, so walks on or past the boundary exit too)
        out = step < eps_eff

        # the lowest bubble index attaining cand_min, only for the rows
        # that exit or may meet a point-like bubble; others keep n_disks
        near = np.full(x.size, idx.n_disks)
        sel = np.nonzero((out | (cand_min < _ENC_TRIGGER)) & nz)[0]
        if sel.size:
            seg = lens[sel]
            pos = np.arange(seg.sum()) + np.repeat(offsets[sel] - np.cumsum(seg) + seg, seg)
            near[sel] = np.minimum.reduceat(
                np.where(dist[pos] == np.repeat(cand_min[sel], seg), items[pos], idx.n_disks),
                np.cumsum(seg) - seg)
        code = np.where(d_ext <= cand_min, _CODE_EXTERIOR, near + 1)
        if absorbing_shell is not None:
            shell_hit = mod >= absorbing_shell
            out |= shell_hit
            code[shell_hit] = _CODE_SHELL

        # point-like encounters: resolve by the exact annulus formula in
        # the concentric bubble-free annulus of radius big_d around the
        # tiny bubble (a resolvable bubble this close is the walker's job)
        enc = np.nonzero(~out & (cand_min < _ENC_TRIGGER))[0]
        enc = enc[idx.pointlike[near[enc]]]
        jump = ~out
        if enc.size:
            jump[enc] = False
            b = near[enc]
            code[enc] = b + 1  # even where the rim is nearer than the tiny bubble
            rho0 = cand_min[enc] + rad[b]
            big_d = np.minimum(idx.enc_clearance[b], r_out - idx.enc_modulus[b])
            # cramped clearance: a hit at the shell floor, with no draw
            cramped = big_d <= np.maximum(4.0 * rho0, 4.0 * _ENC_TRIGGER)
            out[enc[cramped]] = True
            enc, b, rho0, big_d = enc[~cramped], b[~cramped], rho0[~cramped], big_d[~cramped]
            p_hit = (np.log(big_d) - np.log(rho0)) / (np.log(big_d) - np.log(rad[b]))
            hit = uniforms_at(keys[enc], cnt[enc]) < p_hit
            cnt[enc] += 1
            out[enc[hit]] = True
            enc, b, big_d = enc[~hit], b[~hit], big_d[~hit]
            ang = _TWO_PI * uniforms_at(keys[enc], cnt[enc])
            cnt[enc] += 1
            x[enc] = cx[b] + big_d * np.cos(ang)
            y[enc] = cy[b] + big_d * np.sin(ang)
            path[enc] += big_d

        gone = np.nonzero(out)[0]
        w = walk_row[gone]
        exit_code[w] = code[gone]
        exit_steps[w] = cnt[gone]
        exit_path[w] = path[gone]
        exit_x[w] = x[gone]
        exit_y[w] = y[gone]

        # every row moves; the others by +-0, which leaves their values
        # (up to the sign of a zero coordinate) and their counters alone
        s = np.where(jump, step, 0.0)
        theta = _TWO_PI * uniforms_at(keys, cnt)
        x += s * np.cos(theta)
        y += s * np.sin(theta)
        path += s
        cnt += jump

        # refill freed rows with the next unstarted walks, in walk order;
        # compact away the rest once the supply is exhausted
        fresh = gone[:n - started]
        if fresh.size:
            walk_row[fresh] = np.arange(started, started + fresh.size)
            started += fresh.size
            keys[fresh] = supply[walk_row[fresh]]
            x[fresh] = z0.real
            y[fresh] = z0.imag
            path[fresh] = 0.0
            cnt[fresh] = 0
            out[fresh] = False
        if fresh.size < gone.size:
            keep = ~out
            x = x[keep]
            y = y[keep]
            path = path[keep]
            keys = keys[keep]
            cnt = cnt[keep]
            walk_row = walk_row[keep]
        if x.size and int(cnt.max()) >= max_steps:
            over = walk_row[cnt >= max_steps]
            raise WalkBudgetError(over.size, max_steps,
                                  complex(x[cnt.argmax()], y[cnt.argmax()]))
    return exit_code, exit_steps, exit_path, exit_x, exit_y
