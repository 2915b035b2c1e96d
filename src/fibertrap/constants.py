"""Physical constants in SI units, pinned to CODATA 2022.

Literal values rather than scipy's constants module, for two reasons: the
same configuration gives the same bytes whatever scipy is installed (older
scipy releases carry CODATA 2018, whose epsilon_0, mu_0 and atomic mass unit
differ in the last digits), and importing that module costs every command
start-up time. The names follow scipy's; hbar is h / (2 pi), which equals
scipy's CODATA 2022 value bit for bit.
"""

import math

# exact by the 2019 SI definitions
c = 299792458.0
h = 6.62607015e-34
k = 1.380649e-23
hbar = h / (2.0 * math.pi)
# measured
epsilon_0 = 8.8541878188e-12
mu_0 = 1.25663706127e-06
atomic_mass = 1.66053906892e-27
