// gcc -O0 exit status: 44
// A global initializer and the code type `?:` alike.
long g = sizeof(1 ? (char)1 : 2);
int main() { return g * 10 + sizeof(1 ? (char)1 : 2); }
