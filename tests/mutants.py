"""Run Tier-1 against each of a fixed list of one-line mutants of the package.

Run by hand from the repository root, not by pytest:

    python tests/mutants.py                 # every mutant, about 30 s each on 2 cores
    python tests/mutants.py --only NAME ...
    python tests/mutants.py --list

Each mutant is one or more edits, each a file under src/vlcudn, an exact
old text and its new text; the old text must occur exactly once.  The
script copies the repository (without .git) to a temporary directory, and
for each mutant applies its edits there, runs the Tier-1 command with -x
and prints killed, with the first failing test, or survived.  Each
process of a run may map at most MEMORY_CAP bytes, so a mutant that
allocates without bound dies of a MemoryError, and counts as killed,
before it exhausts the host's memory.  It exits 1 if a mutant survives
that EQUIVALENT does not list, and 2 if an old text does not occur
exactly once.  The list only grows, but for a mutant whose code is gone:
a mutant removed is a weaker check.
"""

from __future__ import annotations

import argparse
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
TIMEOUT_S = 900
MEMORY_CAP = 2 ** 30  # address space of each process of a Tier-1 run, in bytes

# name -> [(file under src/vlcudn, old text, new text), ...]
MUTANTS = {
    # The geometry that decides which APs interfere and which links a
    # receiver sees.
    "neighbor-radius-strict": [("topology.py", "(dist <= radius)", "(dist < radius)")],
    "neighbor-radius-half-side": [("topology.py", "radius += spacing * math.sqrt(2.0) / 2.0",
                                   "radius += spacing / 2.0")],
    "fov-edge-excluded": [("kernels.py", "outside = ~(cos_t >= cos_fov)",
                           "outside = ~(cos_t > cos_fov)")],
    "fov-nan-gain-kept": [("kernels.py", "outside = ~(cos_t >= cos_fov)",
                           "outside = cos_t < cos_fov")],
    # Schedules, state, learner and policies.
    "epsilon-decays-upward": [("agent.py", "start + (end - start) * (slots / max(decay_slots, 1))",
                               "start - (end - start) * (slots / max(decay_slots, 1))")],
    "epsilon-zero-decay-divides": [("agent.py", "(slots / max(decay_slots, 1))",
                                    "(slots / decay_slots)")],
    "quantize-rounds": [("agent.py", "np.clip(np.multiply(values, n_bins / upper), 0",
                         "np.clip(np.rint(np.multiply(values, n_bins / upper)), 0")],
    "warmup-one-slot-longer": [("harness.py", "if k < warmup_slots", "if k <= warmup_slots")],
    "bellman-subtracts-future": [("agent.py", "alpha * (utility + beta * next_top)",
                                  "alpha * (utility - beta * next_top)")],
    "explore-on-high-draw": [("harness.py", "explore = (coins < epsilon_at(",
                              "explore = (coins > epsilon_at(")],
    "greedy-takes-worst-level": [("harness.py", "choice = per_ue.argmax(axis=2)",
                                  "choice = per_ue.argmin(axis=2)")],
    "fixed-half-farthest-level": [("harness.py",
                                   "np.argmin(np.abs(levels - config.max_power / 2.0))",
                                   "np.argmax(np.abs(levels - config.max_power / 2.0))")],
    "csv-ten-digits": [("harness.py", '"%d,%.12g,%.12g,%.12g,%.12g\\n"',
                        '"%d,%.10g,%.12g,%.12g,%.12g\\n"')],
    "mean-rate-is-sum": [("harness.py", "mean_rate = rate_sum / n", "mean_rate = rate_sum")],
    "rate-log-of-sinr-plus-two": [("kernels.py", "np.add(out, 1.0, out=out)",
                                   "np.add(out, 2.0, out=out)")],
    "inspect-q-microwatts": [("cli.py", '"%.3g" % (levels[d] * 1e3)',
                              '"%.3g" % (levels[d] * 1e6)')],
    "speed-not-scaled-by-slot": [("mobility.py",
                                  "step = (v_min + v_range * triples[..., 2]) * slot_duration",
                                  "step = v_min + v_range * triples[..., 2]")],
    "bandwidth-factor-dropped": [("config.py",
                                  "return self.effective_bandwidth_factor * self.total_bandwidth",
                                  "return self.total_bandwidth")],
    # Kernel formulas.
    "lambertian-order-plus-two": [("kernels.py", "coef = (m_order + 1.0) * detector_area",
                                   "coef = (m_order + 2.0) * detector_area")],
    "rates-natural-log": [("kernels.py", "np.log2(out, out=out)", "np.log(out, out=out)")],
    "levels-reversed": [("kernels.py", "np.multiply(eta * levels, serving",
                         "np.multiply(eta * levels[::-1], serving")],
    "interference-subtracted": [("kernels.py", "(wn * noise_psd + interference)",
                                 "(wn * noise_psd - interference)")],
    "gain-times-d2": [("kernels.py", "np.divide(coef, d2, out=d2)",
                       "np.multiply(coef, d2, out=d2)")],
    # The gains built in place, in their own arrays: dx and dy only read.
    "gain-squares-dx-in-place": [("kernels.py", "d2 = dx * dx\n",
                                  "d2 = np.multiply(dx, dx, out=dx)\n")],
    "leakage-quadratic": [("kernels.py", "ici_w = eta * total_w * outgoing",
                           "ici_w = eta * total_w * total_w * outgoing")],
    # One extra path row that the harness slices off again: same bytes, but
    # mobility.ue_slots, as perfbench counts it, moves.
    "mobility-extra-row": [
        ("mobility.py", "    return out.T\n",
         "    return np.concatenate([out, out[..., -1:]], axis=2).T\n"),
        ("harness.py", "    local = planes[:, :n]\n",
         "    planes = planes[..., :n_slots]\n    local = planes[:, :n]\n"),
    ],
    # The Q-table's per-state maximum cache.
    "cache-skips-past-sole": [("agent.py", "return j + (j >= self.sole)",
                               "return j + (j > self.sole)")],
    "cache-counts-every-tie": [("agent.py", "if old != top:", "if True:")],
    "cache-raises-on-equal": [("agent.py", "if value > top:", "if value >= top:")],
    "update-reads-own-maximum": [("agent.py", "(utility + beta * next_top)",
                                  "(utility + beta * self.top)")],
    "update-hands-new-value-as-old": [("agent.py", "self.write(action, old, value)",
                                       "self.write(action, value, value)")],
    # A row that QTable.set adds before its first write passed the
    # finiteness check, a read that adds a row, and a new row whose
    # runner-up bound starts at 0.
    "set-adds-row-before-finite-check": [("agent.py",
                                          "row = self.get(state) or QRow(self.n_actions)\n"
                                          "        row.write(",
                                          "row = self.setdefault(state,"
                                          " QRow(self.n_actions))\n        row.write(")],
    "row-read-inserts": [("agent.py", "existing = self.get(state)", "existing = self[state]")],
    "new-row-bound-starts-at-zero": [("agent.py", "self.bound = -math.inf", "self.bound = 0.0")],
    "row-view-writable": [("agent.py", "view.flags.writeable = False", "pass")],
    # The row QTable.__missing__ makes at a state's first lookup, the next
    # row a replayed update reads, and the greedy pick of a partial tie
    # through the non-maximizers.
    "lookup-row-not-stored": [("agent.py", "row = self[state] = QRow(self.n_actions)",
                               "row = QRow(self.n_actions)")],
    "replay-next-top-from-own-row": [("harness.py", "past_next.top", "past.top")],
    "greedy-tie-pick-one-early": [("agent.py", 'j, side="right"', 'j, side="left"')],
    "greedy-tie-pick-ignores-order": [("agent.py", "others - np.arange(others.size)", "others")],
    # The runner-up bound beside a sole maximizer.
    "runner-up-fall-on-equal": [("agent.py",
                                 "if count == 1 and value > self.bound:",
                                 "if count == 1 and value >= self.bound:")],
    "runner-up-not-raised": [("agent.py", "self.bound = value", "pass")],
    "runner-up-kept-on-new-top": [("agent.py", "self.bound = top", "pass")],
    "runner-up-reset-on-own-rise": [("agent.py", "if action != self.sole:  #", "if True:  #")],
    "runner-up-scan-tie-taken-as-sole": [("agent.py", "if second < top:", "if second <= top:")],
    "runner-up-scan-takes-minimizer": [("agent.py", "int(values.argmax())",
                                        "int(values.argmin())")],
    # The qtable.tsv header fields that QTable.save writes and QTable.load requires.
    "header-drops-n-actions": [("agent.py", '("n_actions", "%d"), ', "")],
    # The stale per-run files a rerun removes.
    "stale-runs-four-digits-only": [("harness.py", r"run[0-9]{4,}\.csv", r"run[0-9]{4}\.csv")],
    # The learner's per-episode bin tables and its per-action cache.
    "bins-cast-before-clip": [("agent.py",
                               "np.clip(np.multiply(values, n_bins / upper), 0, n_bins - 1)"
                               ".astype(np.int64)",
                               "np.clip(np.multiply(values, n_bins / upper).astype(np.int64), 0,"
                               " n_bins - 1)")],
    "gain-key-one-slot-late": [("harness.py", "state = rate_key * gain_radix + gain_keys[k]",
                                "state = rate_key * gain_radix + gain_keys[k - 1]")],
    "rate-key-from-current-slot": [("harness.py", "rate_key * rate_radix + rate_bins[base + c]",
                                    "rate_key * rate_radix"
                                    " + rate_bins[min(base + width, (n_slots - 1) * width) + c]")],
    "rate-key-drops-first-ue": [("harness.py",
                                 "rate_key = rate_key * rate_radix + rate_bins[base + c]",
                                 "rate_key = (rate_key * rate_radix + rate_bins[base + c])"
                                 " * (c >= n_levels)")],
    "rate-sum-drops-first-ue": [("harness.py", "rate_sum += rates[base + c]",
                                 "rate_sum += rates[base + c] * (c >= n_levels)")],
    "epsilon-one-slot-late": [("harness.py", "epsilon_at(np.arange(n_slots),",
                               "epsilon_at(np.arange(-1, n_slots - 1),")],
    "quantize-int64-past-the-edge": [("agent.py", "** bins.shape[1] > 2**63",
                                      "** bins.shape[1] > 2**64")],
    "columns-drop-ue-offset": [("harness.py", "[i * n_levels + d for i, d in enumerate(digits)]",
                                "[d for i, d in enumerate(digits)]")],
    # The learner's first state, and the cross-gain its utility reads.
    "first-slot-rate-key-one": [("harness.py", "rate_key = 0  # the first slot sees zero rates",
                                 "rate_key = 1  # the first slot sees zero rates")],
    "utility-reads-previous-cross-gain": [("harness.py", "cross[k]", "cross[k - 1]")],
    # The agent stream's blocks of coins and picks, and u's index into a pool.
    "pick-misses-last-of-pool": [("agent.py", "return int(others[int(u * others.size)])",
                                  "return int(others[int(u * (others.size - 1))])")],
    "coin-block-reused-as-picks": [("harness.py", "draws = draws.tolist()",
                                    "draws = coins.tolist()")],
    "warmup-misses-last-action": [("harness.py", "int(draws[k] * n_actions)",
                                   "int(draws[k] * (n_actions - 1))")],
    "replay-misses-newest-update": [("harness.py", "pool[int(v * len(pool))]",
                                     "pool[int(v * (len(pool) - 1))]")],
    # QTable.load's parse of a file key back into its state index.
    "load-rate-digits-on-gain-radix": [("agent.py", "(rate_bins,) * n + (gain_bins,) * n",
                                        "(gain_bins,) * n + (gain_bins,) * n")],
    "load-reads-gain-digits-first": [("agent.py", "zip(rates + gains,", "zip(gains + rates,")],
    # A header field named twice, or a (state, action) pair written twice,
    # where the last value would win.
    "load-keeps-last-header-field": [("agent.py", "if key in meta:", "if False:")],
    "key-error-without-line": [("agent.py", 'raise ValueError(f"line {number} has a {exc}")',
                                'raise ValueError(f"{exc}")')],
    "load-keeps-last-repeated-entry": [("agent.py", "if (n, index, action) in written:",
                                        "if False:")],
    "gain-bins-unbounded": [("config.py", '"gain_bins", "[1, 9007199254740992]"',
                             '"gain_bins", "[1, inf)"')],
    # The closed-form waypoint walk.
    "walk-arrival-one-late": [("mobility.py", "moves = np.minimum(np.ceil(q) - 1, left)",
                               "moves = np.minimum(np.ceil(q), left)")],
    "walk-landing-one-move-early": [("mobility.py", "lands = length > arrival",
                                     "lands = length >= arrival")],
    "walk-legs-ordered-by-start-only": [("mobility.py",
                                         "np.argsort(col * n_slots + start, kind=\"stable\")",
                                         "np.argsort(start, kind=\"stable\")")],
    "walk-moves-counted-from-zero": [("mobility.py", "move = np.arange(1, n_slots * n_ues + 1)",
                                      "move = np.arange(n_slots * n_ues)")],
    # Each cell group walked into its own slice of the planes.
    "walk-ends-not-rebased": [("mobility.py", "ends[a:b] - first * n_slots)", "ends[a:b])")],
    "walk-group-slice-one-ue-late": [("mobility.py", "_walk(out[:, first:last],",
                                      "_walk(out[:, first + 1:last + 1],")],
    "walk-episode-cut-one-move-late": [("mobility.py", "np.minimum(arrival, n_slots - 1 - start",
                                        "np.minimum(arrival, n_slots - start")],
    # The walk's x and y, each from its own coordinate.
    "walk-y-stepped-by-dx": [("mobility.py", "np.repeat(way[:, axis] - origin, length)",
                              "np.repeat(way[:, 0] - src[:, 0], length)")],
    "walk-landing-snaps-x-only": [("mobility.py",
                                   "            pos[land_col, land_slot] = way[lands, axis]\n",
                                   "            if axis == 0:\n"
                                   "                pos[land_col, land_slot] = way[lands, axis]\n")],
    "walk-distance-x-twice": [("mobility.py", "dist = np.sqrt(sq[..., 0] + sq[..., 1])",
                               "dist = np.sqrt(sq[..., 0] + sq[..., 0])")],
    "walk-y-written-to-x": [("mobility.py", "pos = out[axis]", "pos = out[0]")],
    "walk-extra-slot-per-leg": [("mobility.py", "q = dist / step\n", "q = dist / step + 1\n")],
    # The fork pool: its children die with the call, leave SIGTERM to it and
    # send back their failures, and their runs come back in job order.
    "pool-children-not-killed": [("harness.py", "os.kill(pid, signal.SIGKILL)", "pass")],
    "pool-children-keep-sigterm": [("harness.py", "signal.signal(signal.SIGTERM, signal.SIG_IGN)",
                                    "pass")],
    "pool-runs-in-contiguous-slices": [("harness.py",
                                        "    results = [None] * len(jobs)\n"
                                        "    for i, (done, _) in enumerate(batches):\n"
                                        "        results[i::workers] = done\n"
                                        "    return results\n",
                                        "    return [run for done, _ in batches for run in done]\n")],
    "pool-child-returns": [("harness.py", "        os._exit(code)\n", "        pass\n")],
    "pool-child-drops-its-exception": [("harness.py", "        except Exception as exc:\n"
                                                      "            error = exc\n",
                                        "        except Exception:\n"
                                        "            pass\n")],
    # The sweep's density list, and the joint action spaces numpy can index.
    "densities-may-repeat": [("cli.py", "if len(set(parsed)) != len(parsed):",
                              "if len(set(parsed)) > len(parsed):")],
    "rpic-row-limit-dropped": [("config.py", '{"rpic": 2**60 - 1, "random": 2**63 - 1}',
                                '{"random": 2**63 - 1}')],
    "random-pick-limit-dropped": [("config.py", '{"rpic": 2**60 - 1, "random": 2**63 - 1}',
                                   '{"rpic": 2**60 - 1}')],
    # A failed allocation in a run, which the CLI reports as an abort.
    "memory-error-escapes": [("cli.py", "except (SimulationAbort, MemoryError) as exc:",
                              "except SimulationAbort as exc:")],
    # The .git probe before git starts, and the environment git gets.
    "git-probe-never-finds-checkout": [("harness.py", 'os.path.join(d, ".git")',
                                        'os.path.join(d, ".git-absent")')],
    "git-probe-skips-checkout-root": [("harness.py", "for d in (package, src, root)",
                                       "for d in (package, src)")],
    "git-probe-always-finds-checkout": [("harness.py", "if not any(os.path.exists(",
                                         "if False and any(os.path.exists(")],
    "git-env-keeps-git-dir": [("harness.py", '"GIT_DIR", ', "")],
    # The cross-gains summed per slot as rows, whose order sets the bits.
    "cross-gains-summed-down-columns": [("harness.py",
                                         "outgoing += np.ascontiguousarray(cross.T).sum(axis=1)",
                                         "outgoing += cross.sum(axis=0)")],
    # The per-UE blocks of legs and their top-up rounds.
    "top-up-stops-one-leg-short": [("mobility.py", "short = ends[:, -1] < n_slots",
                                    "short = ends[:, -1] < n_slots - 1")],
    "block-dealt-to-next-column": [("mobility.py",
                                    "triples = draws.reshape(len(cols), _BLOCK, 3)",
                                    "triples = np.roll(draws.reshape(len(cols), _BLOCK, 3), 1,"
                                    " axis=0)")],
    "top-up-leaves-from-the-start": [("mobility.py", "pos, first = cols[short], way[short, -1],",
                                      "pos, first = cols[short], pos[short],")],
    "arrival-on-first-move-rule-dropped": [("mobility.py", "np.where(step >= dist, 0, moves)",
                                            "moves")],
    # One end of a declared key domain flipped between open and closed.
    "rate-bins-lower-open": [("config.py", '"rate_bins", "[1, 9007199254740992]"',
                              '"rate_bins", "(1, 9007199254740992]"')],
    "gain-bins-lower-open": [("config.py", '"gain_bins", "[1, 9007199254740992]"',
                              '"gain_bins", "(1, 9007199254740992]"')],
    "action-cap-lower-open": [("config.py", '"action_cap", "[1, inf)"',
                               '"action_cap", "(1, inf)"')],
    "replay-batch-lower-open": [("config.py", '"replay_batch", "[1, inf)"',
                                 '"replay_batch", "(1, inf)"')],
    "seed-lower-open": [("config.py", '"seed", "[0, inf)"', '"seed", "(0, inf)"')],
    "ap-height-lower-closed": [("config.py", '"ap_height_m", "(0, inf)"',
                                '"ap_height_m", "[0, inf)"')],
    "noise-psd-lower-closed": [("config.py", '"noise_psd_a2_per_hz", "(0, inf)"',
                                '"noise_psd_a2_per_hz", "[0, inf)"')],
    "bandwidth-factor-lower-closed": [("config.py", '"effective_bandwidth_factor", "(0, 1]"',
                                       '"effective_bandwidth_factor", "[0, 1]"')],
    "sinr-cap-lower-closed": [("config.py", '"sinr_cap", "(0, inf)"', '"sinr_cap", "[0, inf)"')],
}

# name -> why it cannot change any result.  Empty: every mutant must die.
EQUIVALENT: dict[str, str] = {}


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _kill_session(proc):
    """Kill whatever is left of proc's session and reap proc."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # nothing is left
        pass
    proc.communicate()


def _read(path):
    with open(path) as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _apply(tree, edits):
    """Apply edits in tree; returns {path: original text} to restore."""
    originals = {}
    for file, old, new in edits:
        path = os.path.join(tree, "src", "vlcudn", file)
        text = _read(path)
        originals.setdefault(path, text)
        if text.count(old) != 1:
            _restore(originals)
            raise LookupError(f"{file}: old text occurs {text.count(old)} times: {old!r}")
        _write(path, text.replace(old, new))
    return originals


def _restore(originals):
    for path, text in originals.items():
        _write(path, text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="Run only these mutants.")
    parser.add_argument("--list", action="store_true", help="Print the mutant names and exit.")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(MUTANTS))
        return 0
    names = args.only or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    # SIGTERM unwinds like Ctrl-C, so the running child is stopped and the
    # temporary copy removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".bench_build", "*.egg-info"))
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
        for name in names:
            try:
                originals = _apply(tree, MUTANTS[name])
            except LookupError as exc:
                print(f"{name}: {exc}", file=sys.stderr)
                return 2
            start = time.perf_counter()
            # Own session, so a timeout or a stop also kills the run's pool workers.
            proc = subprocess.Popen(TIER1, cwd=tree, env=env, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True, preexec_fn=_cap_memory,
                                    start_new_session=True)
            try:
                stdout = proc.communicate(timeout=TIMEOUT_S)[0]
                failed = re.search(r"^(?:FAILED|ERROR) (\S+)", stdout, re.MULTILINE)
                verdict = ("survived" if proc.returncode == 0 else
                           "killed by " + (failed.group(1) if failed else f"exit {proc.returncode}"))
            except subprocess.TimeoutExpired:
                verdict = f"killed by a {TIMEOUT_S} s timeout"
            finally:
                _kill_session(proc)
                _restore(originals)
            if verdict == "survived":
                verdict += f" (equivalent: {EQUIVALENT[name]})" if name in EQUIVALENT else ""
                if name not in EQUIVALENT:
                    survivors.append(name)
            print(f"{name}: {verdict} [{time.perf_counter() - start:.0f} s]", flush=True)
    print(f"{len(names) - len(survivors)} of {len(names)} mutants killed or equivalent")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
