"""Where does transpose overtake move-to-front?

Repeated full scans of the list are the worst case for recency-based
reorganization: every pass move-to-front drags the whole list through
a rotation it immediately regrets. Transpose barely moves anything and
wins as soon as the scans start repeating.

Run:  python3 demos/mtf_vs_trans.py
"""

from solist import crossover, predict


def table(family, n, k_max):
    print(f"family {family}, n = {n}")
    print("   k    mtf  trans  winner")
    for k in range(1, k_max + 1):
        mtf = predict("mtf", family, n, k).total
        trans = predict("trans", family, n, k).total
        if trans < mtf:
            winner = "trans"
        elif mtf < trans:
            winner = "mtf"
        else:
            winner = "tie"
        print(f"  {k:2d}  {mtf:5d}  {trans:5d}  {winner}")
    print()


def main():
    table("T1", 5, 10)
    table("T2", 5, 10)

    print("first k with a strict transpose win (k*), scanning k <= 50:")
    for family in ("T1", "T2"):
        for n in (2, 3, 5, 10, 25):
            k_star = crossover(family, n, 50)
            print(f"  {family} n={n:2d}: k* = {'never' if k_star is None else k_star}")
    print()
    print("n = 2 never crosses: with two items, swapping with the predecessor")
    print("and moving to the front are the same move, so the totals tie.")


if __name__ == "__main__":
    main()
