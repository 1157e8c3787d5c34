"""Print the peak-RSS growth, in MB, from building KG(2n+k, n) in this process.

    python3 bench/graph_rss.py N K     (with the source tree on PYTHONPATH)
"""

import resource
import sys

import bkneser


def peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    before = peak_kb()
    graph = bkneser.build_graph(bkneser.KneserParams(int(sys.argv[1]), int(sys.argv[2])))
    print((peak_kb() - before) / 1024)
