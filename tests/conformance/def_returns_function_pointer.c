// gcc -O0 exit status: 42
// A definition whose declarator returns a function pointer.
int inc(int x) { return x + 1; }
int (*pick(int k))(int) { return inc; }
int main() { return pick(0)(41); }
