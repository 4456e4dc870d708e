"""Gold data shared by the species tests and the acceptance suite: eleven
example species paired with hand-normalized first-order systems and the
combinatorially correct initial values."""

from zoo import BELL_SPECIES_TEXT

GOLD_SPECIES = [
    (
        "non-plane trees",
        "A = X*set(A)",
        "A",
        "ya' = z + x*z^2/(1-x*z) ; z' = z^2/(1-x*z) ; ya(0)=0, z(0)=1",
        "ya",
    ),
    (
        "plane binary trees",
        "B = X + B*B",
        "B",
        "yb' = 1/(1-2*yb) ; yb(0)=0",
        "yb",
    ),
    (
        "plane general trees",
        "C = X*sequence(C)",
        "C",
        "yc' = (1-yc)/((1-yc)^2-x) ; yc(0)=0",
        "yc",
    ),
    (
        "permutations",
        "D = set(cycle(X))",
        "D",
        "yd' = yd/(1-x) ; yd(0)=1",
        "yd",
    ),
    (
        "functional graphs",
        "E = set(cycle(A))\nA = X*set(A)",
        "E",
        "ye' = ye*z/(1-ya) + ye*x*z^2/((1-x*z)*(1-ya)) ; ya' = z + x*z^2/(1-x*z) ;"
        " z' = z^2/(1-x*z) ; ye(0)=1, ya(0)=0, z(0)=1",
        "ye",
    ),
    (
        "set partitions",
        BELL_SPECIES_TEXT,
        "F",
        "yf' = yf*z ; z' = z ; yf(0)=1, z(0)=1",
        "yf",
    ),
    (
        "non-plane ternary trees",
        "G = X + X*set(G, card=3)",
        "G",
        "yg' = (1+z2)/(1-x*z1) ; z2' = z1*(1+z2)/(1-x*z1) ; z1' = yg*(1+z2)/(1-x*z1) ;"
        " yg(0)=0, z1(0)=0, z2(0)=0",
        "yg",
    ),
    (
        "hierarchies",
        "H = X + set(H, card>=2)",
        "H",
        "yh' = 1 + z1/(1-z1) ; z2' = z1/(1-z1) ; z1' = z0 + z0*z1/(1-z1) ;"
        " z0' = z0 + z0*z1/(1-z1) ; yh(0)=0, z1(0)=0, z0(0)=1, z2(0)=0",
        "yh",
    ),
    (
        "3-constrained functional graphs",
        "K = set(cycle(X*set(G,card=2)))\nG = X + X*set(G, card=3)",
        "K",
        "yk' = yk*z3/(1-x*z3) + yk*x*yg*(1+z4)/((1-x*z5)*(1-x*z3)) ;"
        " z1' = z3/(1-x*z3) + x*yg*(1+z4)/((1-x*z5)*(1-x*z3)) ;"
        " z2' = z3 + x*yg*(1+z4)/(1-x*z5) ; z3' = yg*(1+z4)/(1-x*z5) ;"
        " yg' = (1+z4)/(1-x*z5) ; z4' = z5*(1+z4)/(1-x*z5) ;"
        " z5' = yg*(1+z4)/(1-x*z5) ;"
        " yk(0)=1, z1(0)=0, z2(0)=0, z3(0)=0, yg(0)=0, z4(0)=0, z5(0)=0",
        "yk",
    ),
    (
        "3-balanced hierarchies",
        "L = set(set(set(X,card>=1),card>=1))",
        "L",
        "yl' = yl*z1*z3 ; z1' = z1*z3 ; z3' = z3 ; yl(0)=1, z1(0)=1, z3(0)=1",
        "yl",
    ),
    (
        "surjections",
        "M = sequence(set(X, card>=1))",
        "M",
        "ym' = z0/(1-z1)^2 ; z1' = z0 ; z0' = z0 ; ym(0)=1, z1(0)=0, z0(0)=1",
        "ym",
    ),
]
