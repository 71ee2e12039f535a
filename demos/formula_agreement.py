"""Check the closed-form cost formulas against brute-force simulation.

Every (algorithm, family, n, k) cell below is computed twice: once by
serving the sequence request by request, once by evaluating the exact
formula. Run:  python3 demos/formula_agreement.py
"""

from solist import ListState, gen_t1, gen_t2, make_policy, mtf_t1, mtf_t2, serve, trans_t1, trans_t2, verify_grid


def main():
    n, k = 5, 3
    print(f"the four closed forms at n={n}, k={k}, each next to a simulated total:")
    for evaluator in (mtf_t1, mtf_t2, trans_t1, trans_t2):
        algorithm, family = evaluator.__name__.split("_")
        generate = gen_t1 if family == "t1" else gen_t2
        simulated = serve(make_policy(algorithm), ListState.initial(n), generate(n, k)).grand_total
        prediction = evaluator(n, k)
        print(f"  {evaluator.__name__:8s} case {prediction.case_id:4s} {prediction.total:4d} vs {simulated:4d}"
              f"  {evaluator.__doc__.splitlines()[0]}")
    print()

    report = verify_grid(["mtf", "trans"], ["T1", "T2"], (1, 12), (1, 12))

    print("sample cells (algorithm, family, n, k, simulated, predicted):")
    for cell in report.cells[17::71]:
        flag = "ok" if cell.match else "MISMATCH"
        print(
            f"  {cell.algorithm.value:5s} {cell.family.value} "
            f"n={cell.n:2d} k={cell.k:2d}  {cell.simulated:6d} vs {cell.predicted:6d}  {flag}"
        )

    print()
    print(f"grid: n, k in 1..12, {len(report.cells)} cells")
    print(f"mismatches: {report.mismatch_count}")
    print(f"verdict: {'PASS' if report.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
