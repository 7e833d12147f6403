graph wide {
  node Row [count = 500000] {
    country: text = dictionary("countries");
    sex: text = categorical("M": 0.5, "F": 0.5);
    age: long = uniform(18, 90);
    score: double = normal(100.0, 15.0);
    given: text = first_names() given (country, sex);
    joined: date = date_between("2010-01-01", "2020-01-01");
    about: text = sentence_about(5, 12) given (country);
    serial: long = counter();
  }
}
