// must-pass: scoped-binding — a named stack guard built from a copy of the
// current World and constructed before any accessor use, plus
// accessor-only code (the unbound defaults are legal).
namespace fault {
struct Injector {};
Injector* active();
}  // namespace fault

struct World {
  fault::Injector* fault = nullptr;
};
const World& world();

struct BindWorld {
  explicit BindWorld(const World& w);
  ~BindWorld();
  BindWorld(const BindWorld&) = delete;
};

void run_world(fault::Injector& injector) {
  World w = world();           // the copy the guard is built from
  w.fault = &injector;
  BindWorld bind(w);           // named, before any accessor use
  fault::active();             // reads the fresh binding
}

void unbound_only() {
  fault::active();             // no guard in scope: no faults
}
