"""Per-layer counters and timings for one in-process frontlab run.

The tracer wraps public functions and methods of the ``frontlab`` modules
from outside the library.  Every module attribute bound to a wrapped function
is replaced, so modules that took the name with ``from ... import`` see the
wrapper too; methods are replaced on their class.  ``restore`` puts every
original object back.  The library's source is never changed.

A span is one call of a wrapped name.  Its time counts toward the name's
``.s``; the time of spans nested inside it counts toward its children, so
``self_s = s - children``.  Metric names follow ``<module>.<function>.<stat>``.
"""

from __future__ import annotations

import sys
import time

#: experiment functions of ``frontlab.cli`` that the workloads can reach
EXPERIMENTS = ("wave", "front", "tails", "comparison", "sweep")

#: names reported as ``<name>.calls`` and ``<name>.s``
TIMED = ("kernels.build_kernel", "kernels.convolve", "reactions.eval",
         "reactions.eval_du", "reactions.dt_max", "evolve.evolve",
         "evolve.build_approx_front", "waves.solve_traveling_wave",
         "fronts.locate_level", "stability.comparison_test")


class _Stat:
    __slots__ = ("calls", "s", "child_s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.child_s = 0.0


class Tracer:
    """Install with ``install()``, run the workload, then ``restore()``."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counts = {"step_u": 0, "step_uw": 0, "conv_flop": 0,
                       "front_evolves": 0, "relocations": 0}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        self._front_depth = 0

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.calls += 1
                stat.s += dt
                stat.child_s += stack.pop()
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patched.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patched.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def patch_function(self, module: str, attr: str, name: str,
                       after=None, around=None) -> None:
        """Replace ``module.attr`` wherever a frontlab module binds it."""
        original = getattr(sys.modules[module], attr)
        inner = original if around is None else around(original)
        wrapper = self._wrap(name, inner, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "frontlab" and not mod_name.startswith("frontlab."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dval in list(value.items()):
                        if dval is original:
                            self._replace(value, dkey, wrapper)

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        self._replace(cls, attr, self._wrap(name, cls.__dict__[attr], after))

    def restore(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- counters taken from arguments and results --------------------------

    def _count_flops(self, args, result) -> None:
        weighted, u = args[0], args[1]
        self.counts["conv_flop"] += 2 * u.size * weighted.size

    def _count_step(self, args, result) -> None:
        self.counts["step_u" if args[1].w is None else "step_uw"] += 1

    def _count_evolve(self, args, result) -> None:
        self.counts["relocations"] += len(result.relocations)
        if self._front_depth:
            self.counts["front_evolves"] += 1

    def _inside_front(self, fn):
        def inner(*args, **kwargs):
            self._front_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._front_depth -= 1
        return inner

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> "Tracer":
        import frontlab.cli
        cli, evolve, reactions = (sys.modules[f"frontlab.{name}"]
                                  for name in ("cli", "evolve", "reactions"))

        self.patch_function("frontlab.kernels", "build_kernel",
                            "kernels.build_kernel")
        # every stencil convolution: the public convolve() and the stepper
        # both go through this one function
        self.patch_function("frontlab.kernels", "_convolve_samples",
                            "kernels.convolve", after=self._count_flops)
        for cls in (reactions.IgnitionNonlinearity,
                    reactions.AutonomousSlice):
            for meth in ("eval", "eval_du", "dt_max"):
                self.patch_method(cls, meth, f"reactions.{meth}")
        self.patch_method(evolve.Stepper, "step", "evolve.step",
                          after=self._count_step)
        self.patch_function("frontlab.evolve", "evolve", "evolve.evolve",
                            after=self._count_evolve)
        self.patch_function("frontlab.evolve", "build_approx_front",
                            "evolve.build_approx_front",
                            around=self._inside_front)
        self.patch_function("frontlab.waves", "solve_traveling_wave",
                            "waves.solve_traveling_wave")
        self.patch_function("frontlab.waves", "spsolve", "waves.spsolve")
        self.patch_function("frontlab.fronts", "locate_level",
                            "fronts.locate_level")
        self.patch_function("frontlab.stability", "comparison_test",
                            "stability.comparison_test")
        for exp in EXPERIMENTS:
            self.patch_function("frontlab.cli", f"exp_{exp}",
                                f"cli.exp_{exp}")
        for meth in ("write_csv", "write_summary", "plot", "finish"):
            self.patch_method(cli.Artifacts, meth, "cli.artifacts")
        return self

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric the tracer measures, by name."""
        def stat(name):
            return self.stats.get(name, _Stat())

        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = stat(name).calls
            out[f"{name}.s"] = stat(name).s
        step = stat("evolve.step")
        fronts = stat("evolve.build_approx_front").calls
        out.update({
            "kernels.conv_mflop": self.counts["conv_flop"] / 1e6,
            "evolve.step_u.calls": self.counts["step_u"],
            "evolve.step_uw.calls": self.counts["step_uw"],
            "evolve.step.s": step.s,
            "evolve.step.self_s": step.s - step.child_s,
            "evolve.seed_evolves_per_front":
                self.counts["front_evolves"] / fronts if fronts else 0.0,
            "evolve.relocations": self.counts["relocations"],
            "waves.newton_iterations": stat("waves.spsolve").calls,
            "waves.spsolve.s": stat("waves.spsolve").s,
            "cli.artifacts.s": stat("cli.artifacts").s,
        })
        for exp in EXPERIMENTS:
            out[f"cli.exp_{exp}.s"] = stat(f"cli.exp_{exp}").s
        return out
