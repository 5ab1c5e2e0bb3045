// gcc -O0 exit status: 40
// A hex literal that overflows `int` but fits 32 bits is `unsigned int`.
int main() { return sizeof(0xFFFFFFFF) * 10 + (0xFFFFFFFF > -1); }
