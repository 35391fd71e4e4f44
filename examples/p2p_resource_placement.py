#!/usr/bin/env python
"""Resource placement on peers of a P2P overlay network.

Second motivating application from the paper's introduction: replicate a
resource on k peers of a peer-to-peer overlay so that random-walk style
searches started anywhere reach a replica quickly.  Because the expected
absorption time of a random walk into a grounded node group is
``sum_u d_u * (inv(L_{-S}))_{uu}``-like, groups with high current-flow
closeness make excellent replica sets.

The script builds a scale-free overlay, selects replica sets with several
strategies and measures (a) the group CFCC and (b) the empirical mean number
of hops a random walk needs to hit the replica set.

Run with::

    python examples/p2p_resource_placement.py [--peers 400] [--replicas 5]
"""

from __future__ import annotations

import argparse

import numpy as np

import repro
from repro.centrality.absorbing import simulate_hitting_time
from repro.graph import generators


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--peers", type=int, default=400, help="number of peers")
    parser.add_argument("--replicas", type=int, default=5, help="number of replicas k")
    parser.add_argument("--seed", type=int, default=11, help="random seed")
    args = parser.parse_args()

    graph = generators.powerlaw_cluster(args.peers, 3, 0.3, seed=args.seed)
    print(f"P2P overlay: {graph.n} peers, {graph.m} connections")
    print(f"Replicating the resource on k = {args.replicas} peers\n")

    strategies = {
        "SchurCFCM": repro.maximize_cfcc(graph, args.replicas, method="schur",
                                         eps=0.25, seed=args.seed).group,
        "ForestCFCM": repro.maximize_cfcc(graph, args.replicas, method="forest",
                                          eps=0.25, seed=args.seed).group,
        "Degree": repro.degree_group(graph, args.replicas).group,
        "Random": sorted(
            int(v) for v in np.random.default_rng(args.seed).choice(
                graph.n, size=args.replicas, replace=False)
        ),
    }

    print(f"{'strategy':<12} {'group CFCC':>11} {'mean hops to replica':>22}")
    for label, replicas in strategies.items():
        value = repro.group_cfcc(graph, replicas)
        hops = simulate_hitting_time(graph, replicas, walks=300, seed=args.seed,
                                     max_steps_factor=20)
        print(f"{label:<12} {value:>11.4f} {hops:>22.2f}")
    print("\nHigher CFCC should coincide with fewer hops for search walks —")
    print("the connection between CFCC and random-walk accessibility that")
    print("motivates using CFCM for replica placement.")


if __name__ == "__main__":
    main()
