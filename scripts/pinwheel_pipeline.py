"""End-to-end pinwheel study: data, model, geodesics, volumes, indicatrix.

Every artifact lands under --out with a .config.json sidecar, so a rerun
with the same flags reproduces the directory byte for byte.
"""

import argparse
import os
import sys

from finslergp.cli import main as cli


def run(argv):
    code = cli(argv)
    if code != 0:
        sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/pinwheel")
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--fit-steps", type=int, default=200)
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    data = os.path.join(args.out, "pinwheel.csv")
    model = os.path.join(args.out, "model.json")

    run(["generate", "pinwheel", "--n", str(args.n), "--noise", "0.05",
         "--seed", str(args.seed), "--out", data])
    run(["fit", "--data", data, "--out", model, "--kernel", "rbf",
         "--steps", str(args.fit_steps), "--noise", "0.005",
         "--lengthscale", "0.6"])

    # endpoint pairs that cross the low-density voids between arms
    pairs = os.path.join(args.out, "pairs.csv")
    with open(pairs, "w") as fh:
        fh.write("s1,s2,e1,e2\n")
        fh.write("-1.2,-0.4,1.2,0.4\n")
        fh.write("-0.4,1.2,0.4,-1.2\n")
        fh.write("-1.0,0.8,1.0,-0.8\n")
    run(["geodesic", "--model", model, "--pairs", pairs, "--nc", "33",
         "--grid", "10", "--out", os.path.join(args.out, "geodesics.csv")])

    run(["volume", "--model", model, "--grid", "48", "--k", "256",
         "--out", os.path.join(args.out, "volume.csv")])
    run(["indicatrix", "--model", model, "--at", "0,0", "--k", "64",
         "--out", os.path.join(args.out, "indicatrix_origin.csv")])
    print(f"pinwheel study complete under {args.out}")


if __name__ == "__main__":
    main()
