"""Step-by-step trace of the three reorganization rules on one tiny list.

Run:  python3 demos/policy_walkthrough.py
"""

from solist import CostModel, ListState, explicit_sequence, make_policy, serve


def trace(policy_name, start, requests):
    print(f"--- {policy_name} on {start} serving {requests} ---")
    state = ListState(start)
    policy = make_policy(policy_name)
    total = 0
    for item in requests:
        outcome = policy.step(state, item, CostModel.FULL)
        total += outcome.cost
        print(f"  request {item}: cost {outcome.cost}, list becomes {outcome.new_state.order}")
        state, policy = outcome.new_state, outcome.new_policy
    # serve folds the same steps over the whole stream in one call.
    served = serve(make_policy(policy_name), ListState(start), explicit_sequence(requests)).grand_total
    print(f"  grand total {total} (serve over the whole stream: {served})\n")
    return total


def main():
    start = (1, 2, 3, 4)
    requests = (4, 4, 2, 4)

    # Move-to-front reacts instantly: the second request for 4 is cheap.
    trace("mtf", start, requests)

    # Transpose is cautious, one position per access.
    trace("trans", start, requests)

    # Frequency count needs evidence before it reorders much.
    trace("fc", start, requests)

    print("Move-to-front pays off the moment an item repeats. Transpose")
    print("spreads the same adjustment over many accesses, and frequency")
    print("count only commits once the counters say so.")


if __name__ == "__main__":
    main()
