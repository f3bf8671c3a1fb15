"""The kill table: mutants of rompkit that the test suite must catch.

Each entry names a file under ``src/``, an ``old`` snippet that must occur in
it exactly once, the ``new`` text that replaces it, and the test files whose
``pytest -x`` run must fail on the mutant.  ``python mutants/run.py`` applies
them one at a time.
"""

_WALK = '''\
            # Contiguous runs of lanes that hold k columns and add m extend
            # together; a run that adds none is one of stopped lanes.
            lo = 0
            for hi in range(1, b + 1):
                if hi < b and size[hi] == size[lo] and len(selected[hi]) == len(selected[lo]):
                    continue
                k, m = size[lo], len(selected[lo])
                if m:
                    end = k + m
                    chosen = np.concatenate(selected[lo:hi]).reshape(hi - lo, m)
                    _extend(phi.columns(chosen, lo), qt[lo:hi], r[lo:hi], z[lo:hi], x[lo:hi, :, None], k)
                    order[lo:hi, k:end] = chosen
                    taken[bounds[lo:hi, None], chosen] = True
                    size[lo:hi] = [end] * (hi - lo)
                    np.subtract(x[lo:hi, None], z[lo:hi, None, :end] @ qt[lo:hi, :end], out=residual[lo:hi, None])
                lo = hi
'''
_ERRSTATE = '        with np.errstate(over="ignore", under="ignore"):\n'
_DEDENTED_WALK = "".join(line[4:] for line in _WALK.splitlines(keepends=True))

MUTANTS = [
    dict(
        name="regularize-last-maximum",
        why="regularize picks the last of equal maximal windows instead of the first",
        file="src/rompkit/recovery.py",
        old="        start = (energy[ends] - energy[:-1]).argmax()\n",
        new="        gain = energy[ends] - energy[:-1]\n        start = gain.size - 1 - gain[::-1].argmax()\n",
        tests=["tests/test_recovery.py"],
    ),
    dict(
        name="run-walk-outside-errstate",
        why="extension runs outside the loop's np.errstate, so an odd column norm warns",
        file="src/rompkit/recovery.py",
        old=_ERRSTATE + _WALK,
        new=_DEDENTED_WALK + _ERRSTATE,
        tests=["tests/test_recovery.py"],
    ),
    dict(
        name="no-infinite-top-rule",
        why="regularize takes window energies when the top magnitude is infinite (inf - inf)",
        file="src/rompkit/recovery.py",
        old="    if ends[0] < ends.size and top < math.inf:\n",
        new="    if ends[0] < ends.size:\n",
        tests=["tests/test_recovery.py"],
    ),
    dict(
        name="stop-reasons-swapped",
        why="an empty selection ends as zero-observation when identify picked, support-budget when not",
        file="src/rompkit/recovery.py",
        old="end = SUPPORT_BUDGET if edges[lane] < edges[lane + 1] else ZERO_OBSERVATION\n",
        new="end = ZERO_OBSERVATION if edges[lane] < edges[lane + 1] else SUPPORT_BUDGET\n",
        tests=["tests/test_recovery.py"],
    ),
    dict(
        name="stopped-iteration-counted",
        why="a trial stopped before its extension counts the iteration that added nothing",
        file="src/rompkit/recovery.py",
        old="iterations=iterations - stopped,\n",
        new="iterations=iterations,\n",
        tests=["tests/test_recovery.py"],
    ),
    dict(
        name="no-underflow-rule",
        why="a correlation that underflows to zero ends as zero-observation instead of ValueError",
        file="src/rompkit/recovery.py",
        old=(
            "                    if end == ZERO_OBSERVATION and residual[lane].any() and phi.underflows(lane):\n"
            '                        end = ValueError("correlation underflows to zero: matrix entries too small")\n'
        ),
        new="",
        tests=["tests/test_recovery.py"],
    ),
    dict(
        name="batch-past-n-rows-kept",
        why="a batch that would take the support past N rows is extended anyway",
        file="src/rompkit/recovery.py",
        old="selected.append(chosen[:0] if size[lane] + chosen.size > rows else chosen)\n",
        new="selected.append(chosen)\n",
        tests=["tests/test_recovery.py", "tests/test_oracle.py"],
    ),
    dict(
        name="refill-with-ended-lane-k",
        why="a refilled lane copies as many Q rows as the ended lane held, not as many as it holds",
        file="src/rompkit/recovery.py",
        old="qt[lane, : size[lane]] = qt[b, : size[lane]]\n",
        new="qt[lane, :k] = qt[b, :k]\n",
        tests=["tests/test_recovery.py"],
    ),
    dict(
        name="first-window-always",
        why="regularize keeps the window at the top magnitude without comparing energies",
        file="src/rompkit/recovery.py",
        old="    if ends[0] < ends.size and top < math.inf:\n",
        new="    if False:\n",
        tests=["tests/test_recovery.py", "tests/test_oracle.py"],
    ),
    dict(
        name="one-gram-schmidt-pass",
        why="extension orthogonalizes new columns once, without the second Gram-Schmidt pass",
        file="src/rompkit/recovery.py",
        old=(
            "        correction = basis @ columns\n"
            "        columns -= basis_t @ correction\n"
            "        r[..., :k, k:end] = coupling + correction\n"
        ),
        new="        r[..., :k, k:end] = coupling\n",
        tests=["tests/test_recovery.py"],
    ),
    dict(
        name="loose-residual-tolerance",
        why="the zero-residual stop fires at 1e-3 of ||x|| instead of 1e-10",
        file="src/rompkit/recovery.py",
        old="RESIDUAL_TOL = 1e-10\n",
        new="RESIDUAL_TOL = 1e-3\n",
        tests=["tests/test_recovery.py", "tests/test_oracle.py"],
    ),
    dict(
        name="n-columns-zero-residual",
        why="a residual that vanishes because the support holds N columns ends as zero-residual, a recovery",
        file="src/rompkit/recovery.py",
        old="end = ZERO_RESIDUAL if k < rows else SUPPORT_BUDGET\n",
        new="end = ZERO_RESIDUAL\n",
        tests=["tests/test_recovery.py", "tests/test_oracle.py"],
    ),
    dict(
        name="half-the-iterations",
        why="recovery stops after n/2 iterations instead of n",
        file="src/rompkit/recovery.py",
        old="elif iterations >= sparsity:\n",
        new="elif 2 * iterations >= sparsity:\n",
        tests=["tests/test_recovery.py", "tests/test_oracle.py"],
    ),
    dict(
        name="support-not-zeroed",
        why="the correlation is not zeroed on the support, so roundoff can select a column twice",
        file="src/rompkit/recovery.py",
        old="        correlation[taken[:b]] = 0.0\n",
        new="",
        tests=["tests/test_recovery.py"],
    ),
    dict(
        name="entry-skips-finite-check",
        why="the ensembles entry wraps a dense Phi with np.asarray, so a non-finite Phi is never rejected",
        file="src/rompkit/ensembles.py",
        old="    return _Dense(as_matrix(phi))\n",
        new="    return _Dense(np.asarray(phi, dtype=np.float64))\n",
        tests=["tests/test_recovery.py"],
    ),
    dict(
        name="lanes-share-the-stack",
        why="PartialFourier.lanes hands out the caller's stack, which the loop then permutes",
        file="src/rompkit/ensembles.py",
        old="        return PartialFourier(self.freqs[lo:hi], self.dim) if self.lane_state else self\n",
        new="        return self\n",
        tests=["tests/test_recovery.py"],
    ),
    dict(
        name="verifier-no-orthogonality",
        why="the invariant checker never reports a residual that is not orthogonal to the support",
        file="src/rompkit/recovery.py",
        old=(
            "        if worst > tolerance:\n"
            "            violations.append(\n"
            '                f"iter {k}: residual not orthogonal to selected columns ({worst:.3e} > {tolerance:.3e})"\n'
            "            )\n"
        ),
        new="",
        tests=["tests/test_recovery.py"],
    ),
    dict(
        name="verifier-no-energy-floor",
        why="the invariant checker never reports a selection below the energy floor",
        file="src/rompkit/recovery.py",
        old=(
            "        if sel_norm < floor * cand_norm:\n"
            '            violations.append(f"iter {k}: energy floor violated ({sel_norm:.3e} < {floor:.3e} * {cand_norm:.3e})")\n'
        ),
        new="",
        tests=["tests/test_recovery.py"],
    ),
    dict(
        name="cell-unchecked-at-call",
        why="run_cell checks only its two counts at the call, so a bad algorithm or N raises at the first next",
        file="src/rompkit/bench.py",
        old="    replace(config, algorithms=(algo,), sparsities=(sparsity,), measurement_counts=(measurements,))\n",
        new="",
        tests=["tests/test_bench.py"],
    ),
    dict(
        name="conversion-lets-typeerror",
        why="the matrix and vector conversion catches only ValueError, so a non-numeric entry raises TypeError",
        file="src/rompkit/linalg.py",
        old="    except TypeError as exc:\n",
        new="    except ValueError as exc:\n",
        tests=["tests/test_recovery.py"],
    ),
    dict(
        name="sweep-drops-power-scale",
        why="rompkit sweep leaves --scale out of the config, so every sweep runs at the default scale",
        file="src/rompkit/cli.py",
        old='if name not in ("command", "algo")}\n',
        new='if name not in ("command", "algo", "power_scale")}\n',
        tests=["tests/test_cli.py"],
    ),
    dict(
        name="fresh-matrix-next-key",
        why="a fresh cell's batched pass keys trial t's matrix with trial t + 1's seed",
        file="src/rompkit/bench.py",
        old="    return generate_states(seeds.tolist(), 2)\n",
        new="    return generate_states(np.roll(seeds, -1, axis=0).tolist(), 2)\n",
        tests=["tests/test_bench.py"],
    ),
    dict(
        name="fresh-matrix-drops-sparsity",
        why="a fresh cell's batched matrix seeds leave n out of the path, so cells of equal N share matrices",
        file="src/rompkit/bench.py",
        old="[[config.seed, _STREAM_MATRIX, measurements, sparsity, t] for t in trials]",
        new="[[config.seed, _STREAM_MATRIX, measurements, t] for t in trials]",
        tests=["tests/test_bench.py"],
    ),
    dict(
        name="refit-cutoff-from-block",
        why="the refit's rank rule cuts each lane off at the block's largest |diag R| instead of its own",
        file="src/rompkit/linalg.py",
        old="if least < RANK_CUTOFF_RATIO * most or not most}\n",
        new="if least < RANK_CUTOFF_RATIO * max(top) or not most}\n",
        tests=["tests/test_linalg.py"],
    ),
    dict(
        name="refit-misses-newest-column",
        why="the refit's rank rule reads one column fewer than each lane holds, so it misses the newest one",
        file="src/rompkit/linalg.py",
        old="    own = diag if min(sizes) == k else np.where(np.arange(k) < np.array(sizes)[:, None], diag, np.inf)\n",
        new="    own = np.where(np.arange(k) < np.array(sizes)[:, None] - 1, diag, np.inf)\n",
        tests=["tests/test_linalg.py"],
    ),
    dict(
        name="refit-skips-finite-check",
        why="the refit's checks pass a block whose factors hold inf or NaN when no lane breaks the rank rule",
        file="src/rompkit/linalg.py",
        old="    if np.isfinite(r).all() and np.isfinite(z).all() and not failing:\n",
        new="    if not failing:\n",
        tests=["tests/test_recovery.py"],
    ),
    dict(
        name="refit-solves-transpose",
        why="the refit back-substitutes in R^T y = Q^T x instead of R y = Q^T x",
        file="src/rompkit/linalg.py",
        old='    return _umath_linalg.solve1(r, qtx, signature="dd->d")\n',
        new='    return _umath_linalg.solve1(r.T, qtx, signature="dd->d")\n',
        tests=["tests/test_linalg.py"],
    ),
    dict(
        name="dense-columns-from-lane-lo",
        why="a stacked dense Phi gathers every lane's columns from lane lo, the first lane of the group",
        file="src/rompkit/ensembles.py",
        old="        return a_t[np.arange(len(a_t))[:, None], index].swapaxes(-1, -2)\n",
        new="        return a_t[0][index].swapaxes(-1, -2)\n",
        tests=["tests/test_ensembles.py"],
    ),
    dict(
        name="underflow-reads-lane-zero",
        why="a stacked dense Phi's underflow test reads lane 0 for every lane",
        file="src/rompkit/ensembles.py",
        old="        return np.max(np.abs(self._lane_stack(1, lane))) < np.finfo(np.float64).tiny\n",
        new="        return np.max(np.abs(self._lane_stack(1))) < np.finfo(np.float64).tiny\n",
        tests=["tests/test_recovery.py"],
    ),
    dict(
        name="fresh-dense-uncapped",
        why="a fresh dense cell's blocks take lockstep_width trials, however many bytes their drawn matrices hold",
        file="src/rompkit/bench.py",
        old=(
            "        if config.ensemble != PARTIAL_FOURIER_REAL:\n"
            "            width = min(width, max(1, recovery.LOCKSTEP_BYTES // (8 * measurements * config.dim)))\n"
        ),
        new="",
        tests=["tests/test_bench.py"],
    ),
    dict(
        name="complex-cast-to-real",
        why="the matrix and vector conversion casts a complex array to its real part",
        file="src/rompkit/linalg.py",
        old='    if a.dtype.kind == "c":\n',
        new="    if False:\n",
        tests=["tests/test_recovery.py"],
    ),
]
