// must-flag: scoped-binding — temporaries, heap guards, and binding after
// an accessor already read the previous world.
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
};

void temporary_guard(const World& w) {
  BindWorld(w);                    // FLAG: unbinds at end of expression
  fault::active();                 // ...so this reads the old binding
}

void heap_guard(const World& w) {
  auto* bind = new BindWorld(w);   // FLAG: scope-decoupled guard
  (void)bind;
}

void bound_too_late(const World& w) {
  fault::active();                 // reads the previous world's injector
  BindWorld bind(w);               // FLAG: constructed after first use
}

void world_read_too_early(const World& w) {
  if (world().fault != nullptr) {  // not a copy: a read of the old world
  }
  BindWorld bind(w);               // FLAG: constructed after first use
}
