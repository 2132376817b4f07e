"""Fair signaling schemes for third-degree price discrimination.

Exact-rational construction of an efficient, monotone signaling scheme
whose sorted surplus prefix sums are within a factor 8 of every other
scheme's, alongside baselines (no signal, full revelation, buyer-optimal by
peeling), the exact LP adversary that certifies that factor on concrete
instances, and the two lower-bound instance families.

Each public name is imported from its own module, as in
``from fairsignal.market import ValueDistribution``.
"""
