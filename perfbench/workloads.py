"""The four workloads of the qcnn benchmark: inputs, timed rounds, checks
and metrics.  `run.py` is the entry point; it caps the BLAS threads before
this module imports numpy."""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import numpy as np

import oracle as O
import probe
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# shots and learning rate are the package defaults (1000, 1e-7), as are the
# shift rule and simultaneous updates; `jobs` stays unset (no thread fan-out)
WORKLOADS = {
    "train-2x2": dict(arch="conv", batch=1000, measure="end-to-end", eval_mode="exact",
                      check_batch=1000, classical_epochs=2),
    "train-4x4-intermediate": dict(arch="conv-pool-pool", batch=200, measure="intermediate",
                                   eval_mode="sampled", check_batch=200, classical_epochs=10),
    "train-8x8": dict(arch="conv-pool-conv-pool", batch=100, measure="end-to-end", eval_mode="exact",
                      check_batch=16, classical_epochs=100),
    "score-8x8": dict(arch="conv-pool-conv-pool", rows=2000, image_side=256),
}

MIN_ROUNDS = 3
SETUP_REPEATS = 9

SETUP_CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])
import numpy as np
import qcnn
from qcnn.network import Architecture, ModelParams, build_plan, conv_feature_map
from qcnn.training import TrainConfig, TrainingObjective
t1 = time.perf_counter()
arch = Architecture.from_string(spec["arch"])
build_plan(arch)
t2 = time.perf_counter()
cfg = TrainConfig(arch=arch, measure_mode=spec["measure"], eval_mode=spec["eval_mode"])
pixels = np.full((1, arch.image_side ** 2), 128.0)
params = ModelParams.from_vector(arch, np.full(arch.n_params, 0.3))
TrainingObjective(cfg, pixels, np.zeros(1)).p1(params)
if spec["featmap"]:
    conv_feature_map(np.full((2, 2), 128), np.full(4, 0.3))
t3 = time.perf_counter()
print(json.dumps({"build_plan_s": t2 - t1, "total_s": t3 - t0}))
"""


BASELINE_CHILD = r"""
import json, time
t0 = time.perf_counter()
import numpy
print(json.dumps({"import_s": time.perf_counter() - t0}))
"""
# numpy import time of the baseline child on the reference machine in its
# fast state; setup_s is reported at that speed
SETUP_REFERENCE_S = 0.08


class Checks:
    """Named pass/fail results; a failed check makes the run incorrect."""

    def __init__(self):
        self.results = []

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)


class Ops:
    """Counts program operations; an operation that raises counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the run goes on and reports the failure
            self.failed += 1
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None


def import_package():
    """The package from this checkout's `src/`, never an installed copy."""
    if not (SRC / "qcnn" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'qcnn'}; run from a qcnn checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import qcnn

    if Path(qcnn.__file__).resolve().parent != (SRC / "qcnn").resolve():
        print(f"error: imported qcnn from {qcnn.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return qcnn


def derived_seed(seed: int, *key) -> int:
    return int(np.random.SeedSequence((seed,) + key).generate_state(1, dtype=np.uint64)[0] >> 1)


def _child(code: str, *args) -> dict:
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(spec: dict, repeats: int) -> list:
    """Fresh interpreter per repeat: import, plan construction, first call.
    Each repeat follows a child that only imports numpy, whose time scales
    the repeat (see README: interpreter start-up is not followed by the
    speed probe)."""
    out = []
    for _ in range(repeats):
        baseline = _child(BASELINE_CHILD)["import_s"]
        times = _child(SETUP_CHILD, json.dumps(spec))
        times["baseline_s"] = baseline
        out.append(times)
    return out


def make_images(rng, n: int, side: int):
    """Pixel rows and labels: label 1 is one value everywhere, label 0 is
    independent pixels.  A quarter of the rows are dim (pixels <= 12), so
    under small kernel angles their readouts stay away from one half even
    on the 8x8 lattice, where other inputs collapse towards it."""
    k = side * side
    labels = rng.integers(0, 2, n)
    top = np.where(rng.random(n) < 0.25, 13, 256)
    noise = rng.integers(0, top[:, None], (n, k))
    flat = rng.integers(0, top)
    pixels = np.where(labels[:, None] == 1, flat[:, None], noise)
    same = (labels == 0) & np.all(pixels == pixels[:, :1], axis=1)
    pixels[same, 1] = (pixels[same, 0] + 1) % top[same]
    return pixels.astype(np.int64), labels.astype(np.int64)


def binomial_ok(sampled, exact, shots: int):
    """Sampled readouts are whole counts over `shots` and lie within
    7 standard deviations plus 10 counts of the exact probability."""
    counts = sampled * shots
    whole = np.all(np.abs(counts - np.rint(counts)) < 1e-9)
    bound = 7.0 * np.sqrt(exact * (1.0 - exact) / shots) + 10.0 / shots
    worst = float(np.max(np.abs(sampled - exact) - bound))
    return bool(whole and worst <= 0.0), worst


@contextlib.contextmanager
def spy(module, attr: str, sink: list):
    """Record the first argument of every call to module.attr."""
    original = getattr(module, attr)

    def recorder(*args, **kwargs):
        sink.append(args[0].copy())
        return original(*args, **kwargs)

    setattr(module, attr, recorder)
    try:
        yield
    finally:
        setattr(module, attr, original)


class Run:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.speed = probe.SpeedProbe()
        self.qcnn = import_package()
        self.cli_module = importlib.import_module("qcnn.cli")
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.spec = WORKLOADS[name]
        self.rng = np.random.default_rng(derived_seed(seed, 11))
        self.checks = Checks()
        self.ops = Ops()
        # (primary_s, [secondary_s, ...], (first, middle, end) span index,
        #  (before, between, after) probe slot times)
        self.rounds = []
        self.tracer = None
        self._middle = (0, None)

    # ---- shared helpers -------------------------------------------------
    def modules(self) -> dict:
        names = {spec.split(":")[0] for _, spec, _, _ in tracer.TARGETS}
        names |= {u for _, _, users, _ in tracer.TARGETS for u in users}
        return {n: importlib.import_module(n) for n in names}

    def span_count(self) -> int:
        return len(self.tracer.spans) if self.tracer else 0

    def end_primary(self, primary_s: float) -> None:
        """Called by a round between its primary and secondary pass."""
        self._middle = (self.span_count(), self.speed.slot(probe.PROBE_SHARE * primary_s))

    def loop(self, seconds: float, round_fn) -> list:
        rounds = []
        after = self.speed.slot()
        t0 = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
            before = after
            lo = self.span_count()
            primary, secondary = round_fn(len(rounds))
            hi = self.span_count()
            after = self.speed.slot(probe.PROBE_SHARE * sum(secondary))
            mid, between = self._middle
            rounds.append((primary, secondary, (lo, mid, hi), (before, between, after)))
            print(f"round {len(rounds) - 1}: primary {primary:.6f} s, secondary {sum(secondary):.6f} s, "
                  f"probes {before[0]:.6f} {between[0]:.6f} {after[0]:.6f} s", file=sys.stderr)
        return rounds

    def timed_rounds(self, round_fn) -> None:
        if not self.trace:
            self.rounds = self.loop(self.seconds, round_fn)
            return
        self.untraced = self.loop(self.seconds / 2, round_fn)
        self.tracer = tracer.Tracer()
        self.tracer.install(self.modules())
        try:
            self.rounds = self.loop(self.seconds / 2, round_fn)
        finally:
            self.tracer.uninstall()

    # ---- training workloads --------------------------------------------
    def train_config(self, **overrides):
        s = self.spec
        base = dict(arch=s["arch"], batch_size=s["batch"], measure_mode=s["measure"],
                    eval_mode=s["eval_mode"], epochs=1, seed=self.seed)
        base.update(overrides)
        return self.qcnn.TrainConfig(**base)

    def evals_per_sample(self) -> int:
        return 1 + 2 * 4 * sum(O.occurrences(self.spec["arch"]))

    def run_train(self) -> None:
        q = self.qcnn
        s = self.spec
        arch = s["arch"]
        n_params = 4 * len(O.occurrences(arch))
        side = O.ARCH_SIDE[arch]
        p0 = self.rng.uniform(0.0, 0.6, n_params)
        pixels, labels = make_images(self.rng, s["check_batch"], side)
        images = [q.LabeledImage(side, row, int(y)) for row, y in zip(pixels, labels)]
        params0 = q.ModelParams.from_flat(p0)

        # first, untimed call: one epoch on the benchmark's own images
        warm_cfg = self.train_config(batch_size=s["check_batch"])
        warm = self.ops.call(q.train, warm_cfg, dataset=images, initial=params0)

        state = {"params": params0}
        per_sample = self.evals_per_sample()

        def round_fn(k):
            cfg = self.train_config(seed=derived_seed(self.seed, 23, k))
            t0 = time.perf_counter()
            res = self.ops.call(q.train, cfg, initial=state["params"])
            primary = time.perf_counter() - t0
            self.end_primary(primary)
            if res is not None:
                state["params"], curve = res
                self.checks.expect(f"round {k} evaluations", curve.evals == [s["batch"] * per_sample],
                                   f"{curve.evals} != {s['batch']} x {per_sample}")
                self.checks.expect(f"round {k} mse finite", 0.0 <= curve.mses[0] <= 1.0, str(curve.mses))
            stamps = [time.perf_counter()]
            ccfg = self.train_config(seed=cfg.seed, epochs=s["classical_epochs"])
            self.ops.call(q.classical_train, ccfg, log_fn=lambda _line: stamps.append(time.perf_counter()))
            return primary, list(np.diff(stamps))

        self.timed_rounds(round_fn)
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        self.check_train_epoch(warm, warm_cfg, pixels, labels, p0)
        self.check_jacobian(pixels[:3] if side < 8 else pixels[:2], p0)
        self.check_classical(pixels, labels)

    def check_train_epoch(self, warm, cfg, pixels, labels, p0) -> None:
        q = self.qcnn
        arch = self.spec["arch"]
        if warm is None:
            self.checks.expect("warm-up epoch ran", False)
            return
        params1, curve = warm
        n = labels.size
        self.checks.expect("warm-up evaluations", curve.evals == [n * self.evals_per_sample()],
                           f"{curve.evals} != {n} x {self.evals_per_sample()}")
        angles = np.pi * pixels / 255.0
        blocks = O.blocks(p0)
        if cfg.eval_mode.value == "exact":
            p = O.lattice_p1(arch, angles, blocks)
            jac = O.central_jacobian(lambda b: O.lattice_p1(arch, angles, b), blocks)
        else:
            # sampled draws are the program's own; replay epoch 1 with a
            # fresh objective (same draw keys) and check every sampled layer
            # of the forward pass against the exact composition
            sink = []
            obj = q.TrainingObjective(cfg, pixels, labels, base_key=1)
            with spy(sys.modules["qcnn.training"], "prob_to_angle", sink):
                p = obj.p1(q.ModelParams.from_flat(p0))
            jac = obj.jacobian(q.ModelParams.from_flat(p0))
            exact = O.intermediate_layers(arch, angles, blocks, fed=sink)
            for li, layer_p in enumerate(sink + [p[:, None]]):
                ok, worst = binomial_ok(layer_p, exact[li], cfg.shots)
                self.checks.expect(f"sampled layer {li} within binomial bound", ok, f"excess {worst:.3g}")
        act = O.activate(p)
        want_mse = float(np.mean((act - labels) ** 2))
        self.checks.expect("warm-up mse", abs(curve.mses[0] - want_mse) <= 1e-12,
                           f"{curve.mses[0]} vs {want_mse}")
        step = cfg.learning_rate * ((labels - act)[:, None] * (cfg.shots * jac)).sum(axis=0)
        got = params1.vector() - p0
        err = float(np.max(np.abs(got - step)))
        # central differences hold each jacobian entry to ~1e-10 (see
        # check_jacobian, which allows 1e-8); the step sums them weighted by
        # lr * shots * |error|, which matters when the step itself is tiny
        tol = 1e-6 * float(np.max(np.abs(step))) + cfg.learning_rate * cfg.shots * float(np.sum(np.abs(labels - act))) * 1e-8
        self.checks.expect("warm-up update", err <= tol,
                           f"max |update - oracle| = {err:.3g}, tolerance {tol:.3g}, |oracle| = {np.max(np.abs(step)):.3g}")

    def check_jacobian(self, pixels, p0) -> None:
        q = self.qcnn
        arch = self.spec["arch"]
        cfg = self.train_config(eval_mode="exact", batch_size=len(pixels))
        obj = q.TrainingObjective(cfg, pixels, np.zeros(len(pixels)))
        params = q.ModelParams.from_flat(p0)
        got = self.ops.call(obj.jacobian, params)
        angles = np.pi * pixels / 255.0
        blocks = O.blocks(p0)
        if self.spec["measure"] == "end-to-end":
            p = O.lattice_p1(arch, angles, blocks)
            want = O.central_jacobian(lambda b: O.lattice_p1(arch, angles, b), blocks)
            what = "jacobian vs central differences"
        else:
            # measured and re-encoded layers make the two-point rule differ
            # from the derivative; hold it to the oracle's own displacements
            p = O.intermediate_layers(arch, angles, blocks)[-1][:, 0]
            want = O.shift_jacobian(arch, angles, blocks)
            what = "jacobian vs oracle displacements"
        self.checks.expect("exact forward vs oracle",
                           np.max(np.abs(obj.p1(params) - p)) <= 1e-12, "")
        tol = 1e-8 if self.spec["measure"] == "end-to-end" else 1e-12
        self.checks.expect(what, got is not None and np.max(np.abs(got - want)) <= tol,
                           "" if got is None else f"max diff {np.max(np.abs(got - want)):.3g}")

    def check_classical(self, pixels, labels) -> None:
        q = self.qcnn
        k = pixels.shape[1]
        kernel = q.ClassicalKernel(self.rng.uniform(-0.5, 0.5, k), float(self.rng.uniform(-0.5, 0.5)))
        rows = pixels.astype(np.float64)
        acts = 1.0 / (1.0 + np.exp(-(rows / 255.0 @ kernel.weights + kernel.bias)))
        self.checks.expect("classical forward", np.max(np.abs(q.classical_forward(kernel, rows) - acts)) <= 1e-12)
        lr = 1e-7
        new = q.classical_update(kernel, rows, labels, lr)
        _, grad_w, grad_b = q.classical_loss_and_grad(kernel, rows, labels)
        # update units: raw pixels and sum reduction; gradient units:
        # normalized pixels and mean reduction
        n = labels.size
        want_w = -lr * n * 255.0 / 2.0 * grad_w
        want_b = -lr * n / 2.0 * grad_b
        dw = new.weights - kernel.weights
        # rounding: the sum of n terms of at most lr/4 (times 255 for a
        # weight), plus one ulp of the parameter the step is added to
        eps = np.finfo(np.float64).eps
        tol_w = 1e-12 * lr * n * 255.0 / 4.0 + 4 * eps * np.max(np.abs(new.weights))
        tol_b = 1e-12 * lr * n / 4.0 + 4 * eps * abs(new.bias)
        err_w = np.max(np.abs(dw - want_w)) / tol_w
        err_b = abs(new.bias - kernel.bias - want_b) / tol_b
        self.checks.expect("classical update proportional to gradient", max(err_w, err_b) <= 1.0,
                           f"error over tolerance {err_w:.3g} (weights), {err_b:.3g} (bias)")

    # ---- scoring workload ----------------------------------------------
    def run_score(self, work: Path) -> None:
        s = self.spec
        pixels, labels = make_images(self.rng, s["rows"], 8)
        csv = work / "data.csv"
        lines = ["label," + ",".join(f"p{i}" for i in range(64))]
        lines += [",".join(map(str, [y, *row])) for row, y in zip(pixels.tolist(), labels.tolist())]
        csv.write_text("\n".join(lines) + "\n", encoding="ascii")
        p = self.rng.uniform(0.0, 0.25, 8)
        params = work / "params.txt"
        params.write_text("".join(f"{float(a)!r}\n" for a in p), encoding="ascii")
        side = s["image_side"]
        yy, xx = np.mgrid[0:side, 0:side]
        grid = (xx + yy) * 255 // (2 * side - 2) + self.rng.integers(-20, 21, (side, side))
        grid[: side // 4] //= 7  # a dim band
        grid = np.clip(grid, 0, 255)
        pgm_in, pgm_out = work / "image.pgm", work / "summary.pgm"
        body = "\n".join(" ".join(map(str, row)) for row in grid.tolist())
        pgm_in.write_text(f"P2\n{side} {side}\n255\n{body}\n", encoding="ascii")

        eval_argv = ["eval", "--params", str(params), "--data", str(csv)]
        feat_argv = ["featmap", "--in", str(pgm_in), "--params", str(params), "--out", str(pgm_out)]

        def cli(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.ops.call(lambda: self.cli_module.entry(argv))
            if code not in (0, None):
                self.ops.failed += 1
            return code, buf.getvalue()

        first_eval = cli(eval_argv)
        first_feat = cli(feat_argv)
        def read_out():
            return pgm_out.read_bytes() if pgm_out.exists() else b""

        feat_bytes = read_out()

        def round_fn(k):
            t0 = time.perf_counter()
            got_eval = cli(eval_argv)
            t1 = time.perf_counter()
            self.end_primary(t1 - t0)
            got_feat = cli(feat_argv)
            t2 = time.perf_counter()
            self.checks.expect(f"round {k} eval output repeats", got_eval == first_eval, got_eval[1])
            self.checks.expect(f"round {k} featmap output repeats",
                               got_feat == first_feat and read_out() == feat_bytes)
            return t1 - t0, [t2 - t1]

        self.timed_rounds(round_fn)
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # eval: printed MSE and accuracy against oracle readouts
        self.checks.expect("eval exit code", first_eval[0] == 0, str(first_eval))
        printed = dict(line.split(" ", 1) for line in first_eval[1].splitlines() if " " in line)
        ref = O.lattice_p1("conv-pool-conv-pool", np.pi * pixels / 255.0, O.blocks(p))
        act = O.activate(ref)
        want_mse = float(np.mean((act - labels) ** 2))
        want_acc = float(np.mean((act > 0.5) == labels))
        unsure = float(np.mean(np.abs(ref - 0.5) < 1e-9))
        self.checks.expect("eval inputs reach readouts away from 1/2",
                           np.mean(np.abs(ref - 0.5) > 0.05) >= 0.1, f"{np.mean(np.abs(ref - 0.5) > 0.05)}")
        try:
            got_mse, got_acc, got_n = float(printed["mse"]), float(printed["accuracy"]), int(printed["samples"])
        except (KeyError, ValueError):
            got_mse = got_acc = float("nan")
            got_n = -1
        self.checks.expect("eval sample count", got_n == s["rows"], str(got_n))
        self.checks.expect("eval mse vs oracle", abs(got_mse - want_mse) <= 5.1e-7, f"{got_mse} vs {want_mse}")
        self.checks.expect("eval accuracy vs oracle", abs(got_acc - want_acc) <= unsure + 5.1e-7,
                           f"{got_acc} vs {want_acc}")
        # featmap: every output pixel is round(255 p) of its oracle window
        self.checks.expect("featmap exit code", first_feat[0] == 0, str(first_feat))
        toks = [t for line in feat_bytes.decode("ascii").splitlines() for t in line.split("#", 1)[0].split()]
        out = np.array(toks[4:], dtype=np.int64) if toks[:1] == ["P2"] else np.zeros(0)
        ref = O.window_p1(O.conv_windows(grid), p[:4]) * 255.0
        frac = np.abs(ref - np.floor(ref) - 0.5)
        want = np.rint(np.clip(ref, 0, 255)).astype(np.int64)
        shape_ok = toks[1:3] == [str(side // 2), str(side // 2)] and out.size == want.size
        self.checks.expect("featmap pixels vs oracle",
                           shape_ok and bool(np.all((out == want) | (frac < 1e-6))),
                           f"shape ok {shape_ok}")
        self.n_windows = want.size

    # ---- reporting -----------------------------------------------------
    def secondary_part(self) -> int:
        """Classical epochs follow the probe's draw part, the rest the whole."""
        return probe.DRAWS if "classical_epochs" in self.spec else probe.WHOLE

    def scaled(self, rounds):
        """Primary and secondary pass times at the probe's reference speed."""
        scale, part = probe.scale, self.secondary_part()
        primary = [scale(r[0], r[3][0], r[3][1]) for r in rounds]
        secondary = [scale(x, r[3][1], r[3][2], part) for r in rounds for x in r[1]]
        return primary, secondary

    def round_totals(self, rounds) -> list:
        scale, part = probe.scale, self.secondary_part()
        return [scale(r[0], r[3][0], r[3][1]) + scale(sum(r[1]), r[3][1], r[3][2], part) for r in rounds]

    def end_to_end(self, setup) -> dict:
        primary, secondary = self.scaled(self.rounds)
        scale = probe.scale
        return {
            "setup_s": (median([x["total_s"] * SETUP_REFERENCE_S / x["baseline_s"] for x in setup]), "s"),
            "primary_s": (median(primary), "s"),
            "secondary_s": (median(secondary), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def raw_times(self, setup) -> dict:
        """Medians as measured, before scaling to the probe's speed."""
        return {
            "setup_s": median([x["total_s"] for x in setup]),
            "primary_s": median([r[0] for r in self.rounds]),
            "secondary_s": median([x for r in self.rounds for x in r[1]]),
            "probe_s": median(t[0] for t in self.speed.times),
        }

    def per_layer(self, setup) -> dict:
        q = self.qcnn
        rows = []
        for primary, secondary, (lo, mid, hi), _ in self.rounds:
            agg = self.tracer.summarize(lo, hi)
            first = self.tracer.summarize(lo, mid)
            batch = _get(first, "dataset.gen_dataset")
            forward = _get(first, "training.p1") - _get(first, "training.p1", "nested_ms")
            jac = _get(first, "training.jacobian")
            is_train = self.name.startswith("train")
            rb = agg.get("runner.run_plan_batch")
            row = {
                "dataset.gen_dataset.ms": _get(agg, "dataset.gen_dataset"),
                "dataset.gen_dataset.calls": _get(agg, "dataset.gen_dataset", "calls"),
                "dataset.load_dataset.ms": _get(agg, "dataset.load_dataset"),
                "training.phase.batch_ms": batch if is_train else 0.0,
                "training.phase.forward_ms": forward,
                "training.phase.jacobian_ms": jac,
                "training.phase.update_ms": (primary * 1e3 - batch - forward - jac) if is_train else 0.0,
                "training.p1.calls": _get(agg, "training.p1", "calls"),
                "training.p1.self_ms": _get(agg, "training.p1", "self_ms"),
                "runner.run_plan_batch.calls": _get(agg, "runner.run_plan_batch", "calls"),
                "runner.run_plan_batch.ms": _get(agg, "runner.run_plan_batch"),
                "runner.run_plan_batch.self_ms": _get(agg, "runner.run_plan_batch", "self_ms"),
                "runner.gate_apps": rb["work"][0] if rb else 0,
                "runner.sample_gates_per_s": rb["work"][1] / (rb["ms"] / 1e3) if rb else 0.0,
                "contract.apply_to_density.calls": _get(agg, "contract.apply_to_density", "calls"),
                "contract.apply_to_density.ms": _get(agg, "contract.apply_to_density"),
                "contract.trace_out.calls": _get(agg, "contract.trace_out", "calls"),
                "contract.trace_out.ms": _get(agg, "contract.trace_out"),
                "contract.density_prob_one.ms": _get(agg, "contract.density_prob_one"),
                "contract.bytes_computed": sum(
                    agg[n]["work"][0] for n in agg if n.startswith("contract.")),
                "gates.gate_matrix.calls": _get(agg, "gates.gate_matrix", "calls"),
                "gates.gate_matrix.ms": _get(agg, "gates.gate_matrix"),
                "encoding.prob_to_angle.calls": _get(agg, "encoding.prob_to_angle", "calls"),
                "encoding.prob_to_angle.ms": _get(agg, "encoding.prob_to_angle"),
                "baseline.classical_forward.ms": _get(agg, "baseline.classical_forward"),
                "baseline.classical_update.ms": _get(agg, "baseline.classical_update"),
                "network.conv_feature_map.ms": _get(agg, "network.conv_feature_map"),
                "pgm.read_pgm.ms": _get(agg, "pgm.read_pgm"),
                "pgm.write_pgm.ms": _get(agg, "pgm.write_pgm"),
                "cli.entry.self_ms": _get(agg, "cli.entry", "self_ms"),
            }
            rows.append(row)
        out = {name: (median([r[name] for r in rows]), _unit(name)) for name in rows[0]}
        arch = q.Architecture.from_string(self.spec["arch"])
        plan, _ = q.build_plan(arch)
        out["network.build_plan.ms"] = (median([x["build_plan_s"] for x in setup]) * 1e3, "ms")
        out["plans.gates"] = (len(plan.gates), "count")
        out["plans.peak_active_width"] = (plan.peak_active_width(), "count")
        # round times at the probe's reference speed, so that a change in
        # machine speed between the two halves does not read as overhead
        traced = median(self.round_totals(self.rounds))
        plain = median(self.round_totals(self.untraced))
        out["trace.overhead_ms"] = ((traced - plain) * 1e3, "ms")
        out["trace.overhead_pct"] = (100.0 * (traced - plain) / plain, "%")
        return out


def _get(agg: dict, name: str, key: str = "ms"):
    """One figure of a span summary; 0 for a layer that was not called."""
    return agg[name][key] if name in agg else 0.0


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("ms"):
        return "ms"
    if name.endswith("bytes_computed"):
        return "bytes"
    return "count"


def run_workload(args) -> int:
    run = Run(args.workload, args.seed, float(args.seconds), bool(args.trace))
    spec = run.spec
    setup_spec = dict(src=str(SRC), arch=spec["arch"], measure=spec.get("measure", "end-to-end"),
                      eval_mode=spec.get("eval_mode", "exact"), featmap=args.workload.startswith("score"))
    setup = measure_setup(setup_spec, SETUP_REPEATS if not args.trace else 3)
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        if args.workload.startswith("score"):
            run.run_score(work)
        else:
            run.run_train()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = run.per_layer(setup)
        run.tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        metrics = run.end_to_end(setup)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:24s} {name:34s} {value:14.6g} {unit}")
    if not args.trace:
        describe(args.workload, run, metrics, run.raw_times(setup))
    print(f"checks passed {sum(ok for _, ok, _ in run.checks.results)}/{len(run.checks.results)}, "
          f"rounds {len(run.rounds)}, operations {run.ops.attempted} attempted, {run.ops.failed} failed")
    result = {
        "correct": run.checks.ok,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def describe(workload: str, run, metrics, raw) -> None:
    """The same figures under the names a reader of the paper would use,
    at the probe's reference speed and as measured."""
    for label, primary, secondary in (("", metrics["primary_s"][0], metrics["secondary_s"][0]),
                                      (" (measured)", raw["primary_s"], raw["secondary_s"])):
        if workload.startswith("score"):
            lines = [("eval_images_per_s", run.spec["rows"] / primary, "images/s"),
                     ("featmap_windows_per_s", run.n_windows / secondary, "windows/s")]
        else:
            lines = [("epoch_s", primary, "s"), ("classical_epoch_s", secondary, "s")]
        for name, value, unit in lines:
            print(f"{workload:24s} {name + label:34s} {value:14.6g} {unit}")
    print(f"{workload:24s} {'setup_s (measured)':34s} {raw['setup_s']:14.6g} s")
    print(f"{workload:24s} {'probe_s (measured)':34s} {raw['probe_s']:14.6g} s")


