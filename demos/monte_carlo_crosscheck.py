"""Does the closed-form model agree with a brute-force protocol replay?

Runs the seeded discrete-event sampler until 10^4 end-to-end successes
for a few chain configurations and compares every estimator with its
analytical counterpart: total distribution time, memory storage time,
and the spread of the storage time.  z is the deviation in standard
errors; anything inside +-4 is statistical agreement.
"""

from repeaterchain import (
    ChainConfig,
    ChannelParams,
    HardwareParams,
    TrialConfig,
    metrics,
    simulate,
)

hw = HardwareParams()
ch = ChannelParams()

print(f"{'L [km]':>7} {'n':>3} | {'t_tot model':>12} {'t_tot MC':>12} {'z':>6} | "
      f"{'mem model':>10} {'mem MC':>10} {'z':>6} | {'std err':>8}")
# One seed per configuration, so their deviations are independent.
configs = [(250.0, 4), (500.0, 4), (500.0, 8), (1000.0, 8), (1000.0, 16)]
for i, (L, n) in enumerate(configs):
    chain = ChainConfig(total_length=L, link_count=n)
    model = metrics(hw, chain, ch)
    stats = simulate(TrialConfig(hw=hw, chain=chain, ch=ch, trials=10**4, seed=2718 + i))
    z_tot = (stats.mean_t_tot - model.t_tot) / stats.se_t_tot
    z_mem = (stats.mean_mem_time - model.mem_time_avg) / stats.se_mem_time
    std_err = stats.std_mem_time / model.mem_time_std - 1.0
    print(f"{L:7.0f} {n:3d} | {model.t_tot:12.4e} {stats.mean_t_tot:12.4e} "
          f"{z_tot:+6.2f} | {model.mem_time_avg:10.4e} {stats.mean_mem_time:10.4e} "
          f"{z_mem:+6.2f} | {std_err:+8.2%}")

print("\nSame seeds, same numbers: the sampler streams are keyed per trial,")
print("so the run above reproduces bit for bit with the same numpy build")
print("on the same SIMD dispatch path.")
