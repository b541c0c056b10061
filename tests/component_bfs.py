"""Reference component analysis by breadth-first search with 2-colouring.

Test oracle for `graph_core.analyze_components`, which numbers components
in order of their smallest vertex as this search does. The search also
gives each component the structural flags behind the equality
characterisations of the average bias: bipartite, regular, and bi-regular
bipartite (bipartite with a constant degree on each colour class). A
self-loop is an odd cycle and makes its component non-bipartite.
"""

from dataclasses import dataclass

import numpy as np

from friendbias.graph_core import Graph


@dataclass
class Components:
    component_id: np.ndarray
    sizes: list[int]
    is_bipartite: list[bool]
    is_regular: list[bool]
    is_biregular_bipartite: list[bool]
    degree_sums: list[int]


def bfs_components(g: Graph) -> Components:
    comp = np.full(g.n, -1, dtype=np.int64)
    color = np.full(g.n, -1, dtype=np.int8)
    sizes, bip, reg, bireg, dsums = [], [], [], [], []
    cid = 0
    for s in range(g.n):
        if comp[s] >= 0:
            continue
        members = [s]
        comp[s] = cid
        color[s] = 0
        bipartite = True
        queue = [s]
        while queue:
            u = queue.pop()
            for e in g.out_slice(u):
                w = int(g.heads[e])
                if w == u:
                    bipartite = False
                    continue
                if comp[w] < 0:
                    comp[w] = cid
                    color[w] = 1 - color[u]
                    members.append(w)
                    queue.append(w)
                elif color[w] == color[u]:
                    bipartite = False
        degs = g.degrees[members]
        sizes.append(len(members))
        bip.append(bipartite)
        reg.append(bool(degs.min() == degs.max()))
        dsums.append(int(degs.sum()))
        if bipartite:
            side0 = degs[color[members] == 0]
            side1 = degs[color[members] == 1]
            ok0 = side0.size == 0 or side0.min() == side0.max()
            ok1 = side1.size == 0 or side1.min() == side1.max()
            bireg.append(bool(ok0 and ok1))
        else:
            bireg.append(False)
        cid += 1
    return Components(component_id=comp, sizes=sizes, is_bipartite=bip,
                      is_regular=reg, is_biregular_bipartite=bireg,
                      degree_sums=dsums)
