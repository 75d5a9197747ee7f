// lint-fixture: path = crates/core/src/fake_e1.rs
//! E1: events are named through `rpas_obs::catalog`; the string-taking
//! `Obs::info` / `Event::new` are for `crates/obs/` and `ledger/` only.

pub fn literal(obs: &Obs, span: &str, name: &str) {
    obs.info("plan", "made_up", |e| e.field("k", "v")); //~ E1
    obs.info(span, "made_up", |_| {}); //~ E1
    let _ = Event::new(Level::Info, "plan", name); //~ E1
    let _ = rpas_obs::Event::new( //~ E1
        Level::Warn,
        "plan",
        "made_up",
    );
}

pub fn catalogued(obs: &Obs, span: &str, name: &str) {
    // The typed surface, and literals that are not names: field keys and
    // values inside the build closure, pass-through parameters, other
    // types' `new`.
    obs.emit(catalog::PLAN_DECISION, |e| e.field("regime", "conservative"));
    let _ = Event::of(catalog::PLAN_SUMMARY);
    obs.info(span, name, |e| e.field("k", "v"));
    let _ = Event::new(Level::Info, span, name);
    let _ = FaultEvent::new("crash", 3);
    // Any `.info(` with a literal argument is taken for the obs one: the
    // rule sees tokens, not types, and the workspace has no other `info`.
    log.info("some other logger"); //~ E1
}

pub fn justified(obs: &Obs) {
    // rpas-lint: allow(E1, reason = "fixture: probe of the escape hatch itself")
    obs.info("bench", "measurement", |_| {});
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_name_events_through_the_catalogue_too() {
        obs.info("x", "y", |_| {}); //~ E1
    }
}
