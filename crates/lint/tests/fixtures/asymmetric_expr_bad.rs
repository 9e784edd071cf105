// Fixture: `asymmetric-float-expr` fires exactly once, on the
// historical Jeffreys shape. The `asymmetric`-marked measure below uses
// the same expression legally.

lockstep_measure!(
    Jeffreys,
    "Jeffreys",
    |x, y| lane_sum(x, y, |a, b| {
        let (ca, cb) = (clamp_pos(a), clamp_pos(b));
        (ca - cb) * (ca / cb).ln()
    })
);

lockstep_measure!(
    asymmetric
    KullbackLeibler,
    "KullbackLeibler",
    |x, y| lane_sum(x, y, |a, b| {
        let (ca, cb) = (clamp_pos(a), clamp_pos(b));
        ca * (ca / cb).ln()
    })
);
