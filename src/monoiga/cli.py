"""Command-line experiment runner.

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence
(3 also covers a failed decomposition), 4 I/O error.
"""

import argparse
import contextlib
import logging
import sys

from .experiments import (
    ConfigError,
    parse_config,
    run_compare,
    run_convergence,
    run_single,
)
from .geometry import GeometryError
from .linalg import DecompositionError, NonConvergenceError
from .solver import FixedPointDiverged

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_IO = 4


def _add_common(sub):
    sub.add_argument("config", help="experiment configuration file")
    sub.add_argument("--output-dir", help="override the configured output directory")
    sub.add_argument(
        "--verbose", action="store_true", help="per-step progress on stderr"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="monoiga",
        description="Space-time isogeometric monodomain solver experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "single solve with field output"),
        ("convergence", "refinement study on the manufactured 1D problem"),
        ("compare", "plain Galerkin versus stabilized comparison"),
    ):
        sub = subs.add_parser(name, help=helptext)
        _add_common(sub)
    return parser


@contextlib.contextmanager
def _progress_log(enabled):
    """Send the library's INFO records (one per Newton step) to stderr while open."""
    if not enabled:
        yield
        return
    logger = logging.getLogger("monoiga")
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv=None):
    args = build_parser().parse_args(argv)
    with _progress_log(args.verbose):
        try:
            cfg = parse_config(args.config)
            if args.output_dir:
                cfg.output_dir = args.output_dir
            if args.command == "solve":
                cfg.kind = "solve"
                run_single(cfg)
            elif args.command == "convergence":
                cfg.kind = "convergence"
                run_convergence(cfg)
            else:
                cfg.kind = "compare"
                run_compare(cfg)
        except (ConfigError, GeometryError) as exc:
            print("configuration error: %s" % exc, file=sys.stderr)
            return EXIT_CONFIG
        except (FixedPointDiverged, NonConvergenceError) as exc:
            print("solver did not converge: %s" % exc, file=sys.stderr)
            return EXIT_NONCONVERGENCE
        except DecompositionError as exc:
            print("solver failed: %s" % exc, file=sys.stderr)
            return EXIT_NONCONVERGENCE
        except OSError as exc:
            print("i/o error: %s" % exc, file=sys.stderr)
            return EXIT_IO
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
