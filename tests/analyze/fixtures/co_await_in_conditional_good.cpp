// must-pass: co-await-in-conditional — the if/else form awaits inside a
// branch; conditionals without co_await and awaits outside any `?:` are
// fine.
struct Status {};
struct Task {};
Task fetch();
Status local();

Task pick(bool remote) {
  Status s;
  if (remote) {
    s = co_await fetch();
  } else {
    s = local();
  }
  const int retries = remote ? 3 : 0;  // no await in either operand
  Status t = co_await fetch();         // await outside any conditional
  const char* what = "a ? co_await b : c";  // text, not code
}
