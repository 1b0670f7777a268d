"""R003 negative: ordered, counted, or non-accumulating set use."""

from typing import Set

def sorted_sum(weights, a, b):
    return sum(weights[t] for t in sorted(set(a) & set(b)))


def list_sum(weights, items):
    return sum(weights[t] for t in items)


def cardinality(a, b):
    return len(set(a) & set(b))


def ordered_accumulate(weights, items):
    total = 0.0
    for t in sorted(set(items)):  # sorted() restores a canonical order
        total += weights[t]
    return total


def membership(items, probe):
    wanted = set(items)
    return [p for p in probe if p in wanted]


class Profile:
    values: Set[str]  # the annotation is all the linter reads


def blocked(profiles):
    by_value = {}
    for key, profile in enumerate(profiles):
        for value in profile.values:
            by_value.setdefault(value, []).append(key)
    shared = {}
    for _value, keys in by_value.items():
        for a in keys:
            shared[a] += 1  # counting is order-insensitive
    return [a for a in shared]


def neighbour_sums(profiles, sims):
    matched = []
    for a in blocked(profiles):
        matched.append((a, sims[a]))
    matched.sort()  # sorted before summed: the sanctioned fix
    sums = {}
    for a, sim in matched:
        sums[a] = sums.get(a, 0.0)
        sums[a] += sim
    return sums


def relisted_sum(weights, items):
    order = [t for t in set(items)]
    order = sorted(order)
    return sum(weights[t] for t in order)


def table_order_sum(weights, tables):
    order = []
    for table in tables:  # a list: insertion order is the input's
        order.append(table)
    total = 0.0
    for table in order:
        total += weights[table]
    return total
