"""The package surface that the benchmark, the demos and the README read.

`perfbench/` and `demos/` import from the package by name, and the
benchmark's tracer rebinds functions inside the package modules to time
them.  These checks read those files (they change nothing under them) and
fail when a rename or a deletion in `src/qcnn` would break them, and when
the package namespace exports a name that none of its readers use.
"""
import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import qcnn

ROOT = Path(__file__).resolve().parent.parent
READERS = [ROOT / "perfbench" / "workloads.py", ROOT / "perfbench" / "test_oracles.py"]
READERS += sorted((ROOT / "demos").glob("*.py"))


def _load_tracer():
    # executed from source so no bytecode cache is written under perfbench/
    path = ROOT / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _package_reads(path):
    """(module, name) pairs a script reads from the package: from-imports,
    attribute reads on names bound to a package module, and the
    (sys.modules["qcnn..."], "name") pairs it passes to helpers.  Code held
    in string constants (a child process's script) is read too."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    trees = [tree] + [
        ast.parse(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "import qcnn" in node.value
    ]
    reads = set()
    for t in trees:
        # expression text -> package module it evaluates to
        aliases = {"qcnn": "qcnn", "self.qcnn": "qcnn"}
        for node in ast.walk(t):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "qcnn":
                reads |= {(node.module, a.name) for a in node.names}
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                value = node.value
                source = aliases.get(ast.unparse(value))
                if (
                    isinstance(value, ast.Call)
                    and ast.unparse(value.func).endswith("import_module")
                    and isinstance(value.args[0], ast.Constant)
                ):
                    source = value.args[0].value
                if source is not None and source.split(".")[0] == "qcnn":
                    aliases[ast.unparse(node.targets[0])] = source
        for node in ast.walk(t):
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) in aliases:
                reads.add((aliases[ast.unparse(node.value)], node.attr))
            elif isinstance(node, ast.Call) and len(node.args) >= 2:
                target, attr = node.args[0], node.args[1]
                if (
                    isinstance(target, ast.Subscript)
                    and ast.unparse(target.value) == "sys.modules"
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(attr, ast.Constant)
                ):
                    reads.add((target.slice.value, attr.value))
    return reads


def test_readers_find_every_name_they_read():
    missing = []
    top_level = set()
    for path in READERS:
        reads = _package_reads(path)
        assert reads, f"no package reads found in {path.name}"
        for module, name in sorted(reads):
            if not hasattr(importlib.import_module(module), name):
                missing.append(f"{path.relative_to(ROOT)}: {module}.{name}")
            if module == "qcnn" and not name.startswith("__"):
                top_level.add(name)
    assert not missing, missing
    # what the readers take from the package namespace is exported there
    assert top_level <= set(qcnn.__all__), sorted(top_level - set(qcnn.__all__))


def test_package_exports_only_what_its_readers_use():
    used = {name for path in READERS for module, name in _package_reads(path) if module == "qcnn"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used |= set(re.findall(r"`(\w+)`", readme))
    for line in re.findall(r"^from qcnn import (.+)$", readme, flags=re.MULTILINE):
        used |= {name.strip() for name in line.split(",")}
    assert all(hasattr(qcnn, name) for name in qcnn.__all__)
    assert sorted(set(qcnn.__all__) - used) == []


def test_benchmark_tracer_installs_and_uninstalls():
    tracer = _load_tracer()
    names = {spec.split(":")[0] for _, spec, _, _ in tracer.TARGETS}
    names |= {user for _, _, users, _ in tracer.TARGETS for user in users}
    modules = {name: importlib.import_module(name) for name in names}

    def bindings():
        out = {}
        for _, spec, users, _ in tracer.TARGETS:
            owner, leaf = tracer._resolve(modules, spec)
            for where in (owner,) + tuple(modules[u] for u in users):
                out[(getattr(where, "__name__", where), leaf)] = getattr(where, leaf)
        return out

    before = bindings()
    t = tracer.Tracer()
    t.install(modules)
    try:
        assert all(bindings()[key] is not fn for key, fn in before.items())
        # one sampled epoch measured after each layer reaches every traced
        # training function through the rebound names; training runs on
        # compiled channels, so a direct run of the engine reaches the rest
        from qcnn.training import TrainConfig, train

        config = TrainConfig(arch="conv-pool-pool", epochs=1, batch_size=2, measure_mode="intermediate",
                             eval_mode="sampled", seed=3)
        train(config, initial=qcnn.ModelParams.from_flat(np.full(4, 0.3)))
        modules["qcnn.runner"].run_plan_batch(qcnn.group_plan("pool"), np.full((2, 2), 0.3))
    finally:
        t.uninstall()
    assert bindings() == before
    seen = {span[0] for span in t.spans}
    want = {
        "dataset.gen_dataset", "training.p1", "training.jacobian", "runner.run_plan_batch",
        "contract.apply_to_density", "contract.trace_out", "contract.density_prob_one",
        "gates.gate_matrix", "encoding.prob_to_angle", "network.build_plan",
    }
    assert want <= seen, sorted(want - seen)


def test_an_exact_readout_loads_no_hashing_modules():
    # a fresh interpreter that imports the package and takes one exact
    # readout loads neither `secrets` nor `hashlib` (and with it OpenSSL);
    # sampled mode loads them through numpy.random
    script = (
        "import sys, numpy as np, qcnn\n"
        "from qcnn.training import TrainConfig, TrainingObjective\n"
        "cfg = TrainConfig(arch='conv')\n"
        "obj = TrainingObjective(cfg, np.zeros((2, 4), np.uint8), np.zeros(2))\n"
        "obj.p1(qcnn.ModelParams.from_vector(cfg.arch, np.zeros(cfg.arch.n_params)))\n"
        "print(sorted({'secrets', 'hashlib'} & set(sys.modules)))\n"
    )
    src = str(Path(qcnn.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
