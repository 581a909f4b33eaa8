"""Traced stand-in for ``python -m sqzsim``: one CLI command, with layer probes.

    PYTHONPATH=src python3 perfbench/cli_driver.py STATS_JSON ARGV...

Imports sqzsim.cli, replaces the layer functions that sqzsim.cli binds with
probed wrappers, runs ``sqzsim.cli.main(ARGV)`` and writes the per-layer
figures, the time main() took after import, and the RSS after import and
at peak to STATS_JSON. It exits with main()'s exit code.
"""

import json
import sys
import time

from probes import Tracer, rss_mb


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    from sqzsim import cli

    import_rss = rss_mb()
    tracer = Tracer()
    for name in ("total_spectrum", "observe", "observe_corrected",
                 "observed_relative_to_shot"):
        setattr(cli, name, tracer.chain(getattr(cli, name)))
    cli.pulsed_variance_with_error = tracer.pulsed(cli.pulsed_variance_with_error)
    cli.synthesize = tracer.timed("dsp.synthesize", cli.synthesize)
    cli.welch_psd = tracer.welch(cli.welch_psd)
    cli.emulate_sweep = tracer.timed("dsp.emulate_sweep", cli.emulate_sweep)
    cli.write_timeseries = tracer.file_io("fileio.write", cli.write_timeseries)
    cli.read_timeseries = tracer.file_io("fileio.read", cli.read_timeseries)

    t0 = time.perf_counter()
    code = cli.main(argv)
    tracer.stats["cli.main_s"] += time.perf_counter() - t0

    with open(stats_path, "w") as fh:
        json.dump({"layers": tracer.layer_figures(), "import_rss_mb": import_rss,
                   "peak_rss_mb": rss_mb("VmHWM")}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
