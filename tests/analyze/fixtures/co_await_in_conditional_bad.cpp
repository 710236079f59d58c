// must-flag: co-await-in-conditional — an awaited operand of `?:`.
struct Status {};
struct Task {};
Task fetch();
Status local();

Task pick(bool remote) {
  Status s = remote ? co_await fetch() : local();  // FLAG: second operand
}

Task pick_else(bool cached) {
  Status s = cached ? local() : co_await fetch();  // FLAG: third operand
}

Task nested(bool a, bool b) {
  Status s = a ? local() : b ? co_await fetch() : local();  // FLAG
}
