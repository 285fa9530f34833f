"""Write a synthetic telemetry bundle for ``inflowcast reconstruct-inflow``.

    python3 perfbench/telemetry_bundle.py --seed 7 --hours 26280 --out data

The bundle is written with the library's own ``io`` writers from
``simulate_telemetry`` with a zero storage rate and trend: the default drift
leaves the tabulated storage curve after about four weeks of hourly records.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from inflowcast import io as iomod
from inflowcast.synth import simulate_telemetry

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--hours", type=int, default=3 * 8760)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sim = simulate_telemetry(n_hours=args.hours, storage_rate=0.0, storage_trend=0.0, seed=args.seed)
    iomod.write_telemetry_csv(out / "telemetry.csv", sim.telemetry)
    iomod.write_grid_table_csv(out / "efficiency.csv", sim.curves.efficiency)
    iomod.write_grid_table_csv(out / "net_head.csv", sim.curves.net_head)
    iomod.write_storage_csv(out / "storage.csv", sim.curves.storage)
    iomod.write_compensation_csv(out / "compensation.csv", sim.compensation)
    return 0


if __name__ == "__main__":
    sys.exit(main())
