"""The heatlab names that code outside the package relies on.

The benchmark harness in ``perfbench/`` wraps heatlab from outside, so a
removed name would otherwise surface only as a failed traced benchmark run;
these tests load ``perfbench/tracer.py``, read ``perfbench/workloads.py`` and
run ``perfbench/selftest.py`` without changing any of them.  The README's library example runs as written.
Every public name has a reader in the package or the harness, so a name that
only tests call fails here.
"""

import ast
import importlib.util
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heatlab
import heatlab.cli  # noqa: F401  (the tracer reads every layer module)

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_is_a_key_the_tracer_produces():
    tracer = load_tracer().Tracer()
    tracer._find_patches()  # builds the wrappers without installing them
    keys = {f"{name}.{stat}" for name in tracer.totals for stat in ("calls", "total_s", "self_s")}
    keys |= set(tracer.counters)
    # run.py adds the traced-pass timings itself
    keys |= set(re.findall(r'layers\["(trace\.\w+)"\]', (PERFBENCH / "run.py").read_text()))
    listed = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert sorted(set(listed) - keys) == []



def test_the_benchmark_selftest_fails_every_corrupted_case():
    # one pass of each workload, then each corrupted output must fail its check
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "failed_ops 8/12: matches the 8 corrupted cases" in done.stdout.splitlines()

def test_the_tracer_sees_every_step_of_the_chain():
    # the chain calls its step kernels by their public names, so the spans
    # the benchmark reports for them time the chain itself
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        heatlab.weights.run_refinement(3.0, 5)
    finally:
        tracer.remove()
    names = [span[0] for span in tracer.spans]
    assert names.count("weights.solve_cross") == 5
    assert names.count("weights.solve_freq") == 5
    assert names.count("weights.refine_pair") == 4  # no iterate after the last step


@pytest.mark.parametrize("n_frames", [101, 251, 257])
@pytest.mark.parametrize("steps", [1, 100, 1000, 1024])
def test_the_tracer_counts_the_steps_evolve_takes(monkeypatch, steps, n_frames):
    # the static Strang path takes one forward FFT per step, so the
    # benchmark's heat.evolve.substeps counter must count exactly those
    ffts = []
    fft = np.fft.fft

    def counted(a, *args, **kwargs):
        ffts.append(np.shape(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    args = (
        heatlab.grid.gaussian_field(heatlab.grid.SpaceGrid(half_width=12.0, n=256)),
        heatlab.grid.gaussian_potential(0.5, imaginary=True),
        0.0, 1.0, steps,
    )
    heatlab.heat.evolve(*args, n_frames=n_frames)
    assert load_tracer().evolve_substeps(*args, n_frames=n_frames) == len(ffts)


def dotted(node):
    """``["wt", "WeightFamily", ...]`` for an attribute chain on a bare name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def workloads():
    """The parsed ``perfbench/workloads.py`` and the heatlab modules it imports, by local name."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {
        alias.asname or alias.name: getattr(heatlab, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "heatlab"
        for alias in node.names
    }
    assert modules  # the workloads import heatlab's layer modules by name
    return tree, modules


def test_every_heatlab_attribute_the_workloads_use_exists():
    tree, modules = workloads()
    chains = {
        tuple(chain)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (chain := dotted(node)) is not None
        and chain[0] in modules
    }
    missing = []
    for root, *attrs in sorted(chains):
        target = modules[root]
        for depth, attr in enumerate(attrs):
            if not hasattr(target, attr):
                missing.append(".".join([root, *attrs[: depth + 1]]))
                break
            target = getattr(target, attr)
    assert missing == []


def test_every_keyword_the_workloads_pass_binds_to_its_heatlab_callable():
    tree, modules = workloads()

    def resolve(chain, roots):
        target = roots[chain[0]]
        for attr in chain[1:]:
            target = getattr(target, attr)
        return target

    def heatlab_call(node, roots):
        """The attribute chain of a call on one of ``roots``, else None."""
        chain = dotted(node.func) if isinstance(node, ast.Call) else None
        return chain if chain is not None and chain[0] in roots else None

    # a name bound to the result of a heatlab function stands for its declared return class,
    # so ``family.validate(...)`` after ``family = wt.family_from_rate(...)`` is checked too
    instances = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and (chain := heatlab_call(node.value, modules)):
            func = resolve(chain, modules)
            if inspect.isfunction(func):
                cls = func.__globals__.get(func.__annotations__.get("return"))
                for target in node.targets:
                    if isinstance(cls, type) and isinstance(target, ast.Name):
                        instances[target.id] = cls

    roots = {**modules, **instances}
    checked, unbound = [], []
    for node in ast.walk(tree):
        if not (chain := heatlab_call(node, roots)):
            continue
        # a method looked up on a class takes the instance as its first argument
        args = [None] * (len(node.args) + (chain[0] in instances))
        kwargs = dict.fromkeys(kw.arg for kw in node.keywords)
        label = ".".join(chain)
        checked.append((label, *kwargs))
        try:
            inspect.signature(resolve(chain, roots)).bind(*args, **kwargs)
        except TypeError as exc:
            unbound.append(f"{label}({', '.join(kwargs)}): {exc}")
    assert unbound == []
    # the check reaches module functions, classes and a method of a returned family
    assert ("heat.evolve", "steps", "frame_times") in checked
    assert ("gr.SpaceGrid", "half_width", "n") in checked
    assert ("family.validate", "strict_signs") in checked


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


# independent reference routes: each checks a quantity the package computes another way
REFERENCE_ROUTES = {
    "complex_gaussian",  # closed-form heat solution, the oracle for evolve
    "limit_family",  # closed-form weight family, the oracle for the refinement chain
    "commutator_identity",  # criterion 2: the commutator positivity on a field
    "appell_mid_exponent",  # criterion 6: the Appell mid-time exponent (ROADMAP item 8)
}
LAYERS = ("timecurve", "weights", "grid", "heat", "functionals", "kernels")


def public_surface():
    """Every public function or class defined at module level in one of ``LAYERS``."""
    return {
        name
        for module in (getattr(heatlab, layer) for layer in LAYERS)
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }


def test_the_package_binds_no_name_but_its_version_and_its_modules():
    # one import path per name: each is imported from the module that defines it
    bound = {
        name for name, obj in vars(heatlab).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert bound == set()
    assert heatlab.__version__


def test_every_public_name_has_a_reader_outside_the_tests():
    loads = set()
    for path in (ROOT / "src" / "heatlab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
    harness = "\n".join(p.read_text() for p in [*PERFBENCH.glob("*.py"), ROOT / "BENCHMARK.json"])
    named = set(re.findall(r"\w+", harness))
    surface = public_surface()
    assert REFERENCE_ROUTES <= surface
    assert sorted(surface - loads - named - REFERENCE_ROUTES) == []
