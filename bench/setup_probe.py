"""Time what one CLI run pays before its first drop.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 bench/setup_probe.py T0 -- single-rb --config sim.cfg ...

T0 is CLOCK_MONOTONIC read by the parent just before it started this
interpreter, so the time includes interpreter start-up. The probe runs the
CLI's own ``main`` with the given arguments and stops it at the first call of
any function in FIRST_DROP, wherever the package binds it: by then the CLI
has imported the package, parsed its arguments, loaded the config and, for
the drop experiments, sampled its deployment. Prints one JSON line with the
time, the hook that fired and the versions used; exits 1 if no hook fired.
"""

import sys
import time

import mtc_underlay.cli

#: "<module>.<name>" of functions whose first call starts the first drop
FIRST_DROP = ("montecarlo.run_drop", "channel.gen_channel_block", "montecarlo.verify_asymptotic")


class FirstDrop(BaseException):
    """Raised by a hook; a BaseException, so the CLI's error handling lets it by."""


def install_hooks(t0: float) -> None:
    modules = [m for n, m in sys.modules.items()
               if n == "mtc_underlay" or n.startswith("mtc_underlay.")]
    for target in FIRST_DROP:
        module_name, name = target.split(".")
        original = getattr(sys.modules.get(f"mtc_underlay.{module_name}"), name, None)
        if original is None:
            continue

        def hook(*args, _target=target, **kwargs):
            raise FirstDrop(_target, time.clock_gettime(time.CLOCK_MONOTONIC) - t0)

        for module in modules:  # rebind where callers imported it by name
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, hook)


def main() -> int:
    t0, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: setup_probe.py T0 -- CLI-ARGS...")
    install_hooks(float(t0))
    try:
        code = mtc_underlay.cli.main(cli_args)
    except FirstDrop as stop:
        hook, elapsed = stop.args
    else:
        print(f"setup probe: the CLI exited ({code}) without calling any of {FIRST_DROP}",
              file=sys.stderr)
        return 1
    import json
    import platform

    import numpy as np

    print(json.dumps({
        "setup_s": elapsed,
        "hook": hook,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "module": mtc_underlay.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
