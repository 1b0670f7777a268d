"""R003 positive: float accumulation over unordered iteration."""


def set_sum(weights, a, b):
    common = set(a) & set(b)
    return sum(weights[t] for t in common)  # line 6: flagged (set-typed local)


def inline_set_sum(weights, items):
    return sum(weights[t] for t in set(items))  # line 10: flagged


def dict_view_sum(weights: dict) -> float:
    return sum(w * w for w in weights.values())  # line 14: flagged


def loop_accumulate(weights, items):
    total = 0.0
    for t in set(items):  # line 19: flagged (AugAssign in body)
        total += weights[t]
    return total


class Profile:
    values: Set[str]  # the annotation is all the linter reads


def blocked(profiles):
    by_value = {}
    for key, profile in enumerate(profiles):
        for value in profile.values:  # a set, iterated into a dict of lists
            by_value.setdefault(value, []).append(key)
    shared = {}
    for _value, keys in by_value.items():
        for a in keys:
            shared[a] = shared.get(a, 0) + 1
    candidates = []
    for a, count in shared.items():
        candidates.append((a, count))
    return by_value, candidates


def neighbour_sums(profiles, sims):
    _by_value, candidates = blocked(profiles)
    matched = []
    for a, _count in candidates:
        matched.append((a, sims[a]))
    sums = {}
    for a, sim in matched:  # line 49: flagged (order came from a set)
        sums[a] = sums.get(a, 0.0)
        sums[a] += sim
    return sums


def listed_sum(weights, items):
    order = [t for t in set(items)]
    return sum(weights[t] for t in order)  # line 57: flagged
