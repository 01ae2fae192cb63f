// Malformed JSON documents shared by the parser suite (obs::ParseJson) and
// the report suite (obs::JsonIsValid), so the one reader and its boolean
// wrapper are checked against the same inputs.

#ifndef AUTOFEAT_TESTS_SUPPORT_MALFORMED_JSON_H_
#define AUTOFEAT_TESTS_SUPPORT_MALFORMED_JSON_H_

namespace autofeat::testsupport {

inline constexpr const char* kMalformedJson[] = {
    "",
    "{",
    "{\"a\": }",
    "{\"a\" 1}",
    "{\"a\": 1,}",
    "[1,]",
    "{\"a\": 1} extra",
    "\"unterminated",
    "\"bad \x01 control\"",
    "\"bad \\q escape\"",
    "\"\\u12\"",
    "01",
    "nul",
};

}  // namespace autofeat::testsupport

#endif  // AUTOFEAT_TESTS_SUPPORT_MALFORMED_JSON_H_
