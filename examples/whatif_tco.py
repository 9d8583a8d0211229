#!/usr/bin/env python3
"""What can CDPUs buy the fleet? The §3.3 resource trade-off, quantified.

The paper's motivating argument: an accelerator that removes the CPU cost of
heavyweight compression lets services adopt high compression ratios "for
free", saving storage, network, and memory — savings worth more than the
recovered cycles. This example runs that scenario at several adoption levels
and relates it to the silicon budget a fleet-wide deployment needs.

Run:  python examples/whatif_tco.py
"""

from repro.core.complex import CdpuComplex
from repro.core.params import CdpuConfig
from repro.fleet import generate_fleet_profile, migration_what_if


def main() -> None:
    profile = generate_fleet_profile(seed=0, num_calls=120_000)

    print("Scenario: migrate Snappy + low-level ZStd traffic to CDPU-accelerated")
    print("high-level ZStd (paper §3.3 — 'save storage/memory/network resources")
    print("by changing the trade-off space').\n")

    print(f"{'adoption':>9s} {'agg. ratio':>11s} {'CPU cycles':>11s} {'bytes':>8s} {'cost':>7s}")
    for adoption in (0.0, 0.25, 0.5, 0.75, 1.0):
        report = migration_what_if(profile, adoption=adoption)
        print(
            f"{100 * adoption:8.0f}% "
            f"{report.accelerated.aggregate_ratio:10.2f}x "
            f"{-100 * report.cpu_cycle_reduction:+10.1f}% "
            f"{-100 * report.compressed_byte_reduction:+7.1f}% "
            f"{-100 * report.cost_reduction:+6.1f}%"
        )

    full = migration_what_if(profile)
    print()
    print(full.render())

    silicon = CdpuComplex(CdpuConfig())
    print(
        f"\nSilicon to deploy per socket (Snappy C+D + ZStd C+D, one lane each): "
        f"{silicon.area_mm2():.2f} mm^2"
        f" — {100 * silicon.area_mm2() / 17.98:.0f}% of one Xeon core tile."
    )
    print("At 2.9% of fleet cycles spent (de)compressing, the cycle savings alone")
    print(
        f"return ~{0.029 * full.cpu_cycle_reduction * 100:.1f}% of *all* fleet CPU time, "
        "before counting the byte savings."
    )


if __name__ == "__main__":
    main()
